package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// resetPeakRSS frees what the process no longer uses and resets the
// kernel's high-water mark (VmHWM) to the current resident size, so a later
// peakRSSMB reports the peak of the phase that follows only.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the peak RSS (proc(5)).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting VmHWM: %w", err)
	}
	return nil
}

// peakRSSMB returns VmHWM in MiB.
func peakRSSMB() (float64, error) {
	const field = "VmHWM:"
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fs := strings.Fields(strings.TrimPrefix(line, field))
		if len(fs) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fs[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s %q: %w", field, line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s not found in /proc/self/status", field)
}
