package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"dbtf/internal/boolmat"
	"dbtf/internal/gen"
	"dbtf/internal/tensor"
)

// plantedSpec describes one planted-plus-noise tensor: Boolean rank-Rank
// factors whose every column has exactly round(Density·n) ones, plus the
// paper's additive/destructive noise. Fixing the ones per column (instead
// of drawing each entry independently) keeps |X| within a fraction of a
// percent across seeds, so time metrics of different seeds compare the
// same amount of work.
type plantedSpec struct {
	Name        string  `json:"name"`
	Dims        [3]int  `json:"dims"`
	Rank        int     `json:"rank"`
	Density     float64 `json:"density"`
	Additive    float64 `json:"additive"`
	Destructive float64 `json:"destructive"`
}

// tensorMeta is the provenance record of one cached tensor.
type tensorMeta struct {
	plantedSpec
	NNZ int `json:"nnz"`
	// TruthError is |X ⊕ X̂| of the planted factors on the noisy tensor:
	// the noise floor a factorization is judged against.
	TruthError int64 `json:"truth_error"`
}

func (m tensorMeta) truthRel() float64 { return float64(m.TruthError) / float64(m.NNZ) }

// planted is one loaded input: the tensor and its planted truth factors.
type planted struct {
	meta    tensorMeta
	path    string
	x       *tensor.Tensor
	a, b, c *boolmat.FactorMatrix
}

func exactFactor(rng *rand.Rand, n, r int, density float64) *boolmat.FactorMatrix {
	m := boolmat.NewFactor(n, r)
	ones := int(density*float64(n) + 0.5)
	for c := 0; c < r; c++ {
		for _, i := range rng.Perm(n)[:ones] {
			m.Set(i, c, true)
		}
	}
	return m
}

func generate(rng *rand.Rand, s plantedSpec) *planted {
	a := exactFactor(rng, s.Dims[0], s.Rank, s.Density)
	b := exactFactor(rng, s.Dims[1], s.Rank, s.Density)
	c := exactFactor(rng, s.Dims[2], s.Rank, s.Density)
	x := gen.AddNoise(rng, tensor.Reconstruct(a, b, c), s.Additive, s.Destructive)
	return &planted{
		meta: tensorMeta{plantedSpec: s, NNZ: x.NNZ(), TruthError: tensor.ReconstructError(x, a, b, c)},
		x:    x, a: a, b: b, c: c,
	}
}

// inputDir is where the inputs of one (workload, seed) pair are cached,
// relative to the checkout root the benchmark runs from.
func inputDir(wl string, seed int64) string {
	return filepath.Join("perfbench", ".inputs", fmt.Sprintf("%s-seed%d", wl, seed))
}

const metaFile = "meta.json"

// ensureInputs generates the workload's tensors for seed once and writes
// them in the binary tensor format, with the truth factors and a
// provenance record, under inputDir. Later runs find them there, so
// set-up time measures the program's load path and not the generator. A
// cache whose recorded specs differ from the workload's current ones is
// generated again.
func ensureInputs(wl *workload, seed int64) (string, error) {
	dir := inputDir(wl.name, seed)
	specs := wl.inputs(rand.New(rand.NewSource(seed)))
	metas, err := readMetas(dir)
	if err == nil && sameSpecs(metas, specs) {
		return dir, nil
	}
	if err == nil {
		note("cached inputs in %s were made from other specs; generating them again", dir)
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	// Noise and factors draw from a stream of their own so the spec list
	// (which uses the seed too) cannot shift them.
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), filepath.Base(dir)+".tmp-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	metas = nil
	for _, s := range specs {
		p := generate(rng, s)
		if err := p.x.WriteBinaryFile(filepath.Join(tmp, s.Name+".dbt")); err != nil {
			return "", err
		}
		for i, f := range []*boolmat.FactorMatrix{p.a, p.b, p.c} {
			if err := f.WriteFile(filepath.Join(tmp, fmt.Sprintf("%s.%c", s.Name, 'a'+i))); err != nil {
				return "", err
			}
		}
		metas = append(metas, p.meta)
	}
	js, err := json.MarshalIndent(metas, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, metaFile), js, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", fmt.Errorf("publishing inputs: %w", err)
	}
	return dir, nil
}

func sameSpecs(metas []tensorMeta, specs []plantedSpec) bool {
	if len(metas) != len(specs) {
		return false
	}
	for i, m := range metas {
		if m.plantedSpec != specs[i] {
			return false
		}
	}
	return true
}

func readMetas(dir string) ([]tensorMeta, error) {
	js, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, err
	}
	var metas []tensorMeta
	if err := json.Unmarshal(js, &metas); err != nil {
		return nil, fmt.Errorf("%s: %w", metaFile, err)
	}
	return metas, nil
}

// loadTensors reads every cached tensor of dir through the program's load
// path. This is the timed part of set-up.
func loadTensors(dir string, metas []tensorMeta) ([]*planted, error) {
	out := make([]*planted, len(metas))
	for i, m := range metas {
		path := filepath.Join(dir, m.Name+".dbt")
		x, err := tensor.ReadAnyFile(path)
		if err != nil {
			return nil, err
		}
		if x.NNZ() != m.NNZ {
			return nil, fmt.Errorf("%s: %d nonzeros, provenance says %d", path, x.NNZ(), m.NNZ)
		}
		out[i] = &planted{meta: m, path: path, x: x}
	}
	return out, nil
}

// loadTruth reads the planted factors of p, which only the layer probes
// and the checks need.
func loadTruth(dir string, p *planted) error {
	fs := make([]*boolmat.FactorMatrix, 3)
	for i := range fs {
		f, err := boolmat.ReadFactorFile(filepath.Join(dir, fmt.Sprintf("%s.%c", p.meta.Name, 'a'+i)))
		if err != nil {
			return err
		}
		fs[i] = f
	}
	p.a, p.b, p.c = fs[0], fs[1], fs[2]
	if e := tensor.ReconstructError(p.x, p.a, p.b, p.c); e != p.meta.TruthError {
		return fmt.Errorf("%s: truth factors give error %d, provenance says %d", p.meta.Name, e, p.meta.TruthError)
	}
	return nil
}
