package cluster

import (
	"context"
	"errors"
	"fmt"

	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

// Remote reports whether the cluster executes remote-capable stages on a
// real transport instead of the simulated pool. Clients gate
// state-replication pushes (PushState) on it; everything else — stage
// structure, traffic accounting, driver sections — is identical on both
// backends.
func (c *Cluster) Remote() bool { return c.transport != nil }

// RunStage executes one partition-parallel stage described by spec. On the
// simulated backend (the default) it is exactly ForEachNamed(spec.Name,
// spec.Tasks, local): same stage numbering, chaos injection, retries, and
// accounting. On a remote transport the stage is shipped as spec, each
// task's payload is delivered to sink (sequentially, in completion order),
// and the executors' measured task nanos are charged to the simulated
// clock in place of locally measured durations. Either way the stage pays
// the network price of the traffic recorded since the previous boundary,
// so the modeled Stats stay backend-independent.
func (c *Cluster) RunStage(ctx context.Context, spec transport.Spec, local func(task int) error, sink func(task int, payload []byte) error) error {
	if c.transport == nil {
		return c.ForEachNamed(ctx, spec.Name, spec.Tasks, local)
	}
	return c.runStageRemote(ctx, spec, sink)
}

// runStageRemote is the transport-backed stage path: liveness transitions
// are collected from the transport and applied at the boundary (exactly
// where the simulated engine applies FaultPlan losses), the stage opens
// and closes through the same beginStage/endStage books as a simulated
// stage, and the stage's real wire traffic is emitted as a trace
// measurement.
func (c *Cluster) runStageRemote(ctx context.Context, spec transport.Spec, sink func(task int, payload []byte) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.applyLiveness(c.transport.Membership(ctx))
	st := c.beginStage(ctx, spec.Name, spec.Tasks, nil)
	sentBefore, recvBefore := c.transport.WireBytes()
	err := ctx.Err()
	if err == nil {
		err = c.transport.Run(ctx, spec, func(tr transport.TaskResult) error {
			st.charge(tr.Machine, tr.Nanos)
			if sink == nil {
				return nil
			}
			return sink(tr.Task, tr.Payload)
		})
	}
	c.endStage(st, err == nil)
	sentAfter, recvAfter := c.transport.WireBytes()
	c.emitWire(spec.Name, st.stage, (sentAfter-sentBefore)+(recvAfter-recvBefore))
	if err != nil {
		return stageError(st.label, err)
	}
	return nil
}

// PushSetup ships every remote executor its own setup blob (homes[m] to
// machine m); on the simulated backend it is a no-op. The wire volume is
// emitted as a trace measurement; the modeled shuffle of the partitions
// is recorded by the caller, identically on both backends.
func (c *Cluster) PushSetup(ctx context.Context, homes [][]byte) error {
	return c.push(ctx, transport.StateSetup, func(ctx context.Context) error {
		return c.transport.PushSetup(ctx, homes)
	})
}

// PushState replicates one state blob to every live remote executor; on
// the simulated backend it is a no-op (the "executors" share the
// coordinator's memory). The wire volume is emitted as a trace
// measurement; the modeled broadcast traffic is recorded separately by the
// caller through Broadcast/BroadcastState, identically on both backends.
func (c *Cluster) PushState(ctx context.Context, kind transport.StateKind, payload []byte) error {
	return c.push(ctx, kind, func(ctx context.Context) error {
		return c.transport.PushState(ctx, kind, payload)
	})
}

// push runs one state push on the transport, emitting its real socket
// bytes as a "state:<kind>" wire measurement.
func (c *Cluster) push(ctx context.Context, kind transport.StateKind, send func(context.Context) error) error {
	if c.transport == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sentBefore, recvBefore := c.transport.WireBytes()
	err := send(ctx)
	sentAfter, recvAfter := c.transport.WireBytes()
	c.emitWire("state:"+kind.String(), -1, (sentAfter-sentBefore)+(recvAfter-recvBefore))
	if err != nil {
		return fmt.Errorf("cluster: state push %q: %w", kind.String(), err)
	}
	return nil
}

// applyLiveness applies transport-observed machine transitions to the
// engine's liveness books, in detection order, with the same accounting as
// FaultPlan losses at a simulated stage boundary: the survivor (or the
// rejoining machine) re-fetches the broadcast working set over one link,
// losses invoke the registered loss handler, and every transition is
// emitted as a boundary trace event.
func (c *Cluster) applyLiveness(events []transport.LivenessEvent) {
	if len(events) == 0 {
		return
	}
	type transition struct {
		machine int
		up      bool
	}
	var applied []transition
	c.mu.Lock()
	stage := c.st.Stages
	recoveryBytes := c.liveBroadcast
	for _, ev := range events {
		m := ev.Machine
		if m < 0 || m >= c.machines {
			continue
		}
		if ev.Up {
			if c.alive[m] {
				continue
			}
			c.alive[m] = true
			c.aliveCount++
			c.chargeRecoveryLocked(recoveryBytes)
			c.st.Recoveries++
			applied = append(applied, transition{m, true})
			continue
		}
		if !c.alive[m] || c.aliveCount <= 1 {
			// Never mark the last live machine dead: reassignment needs a
			// survivor. A transport with no live executor fails the next
			// Run instead.
			continue
		}
		c.alive[m] = false
		c.aliveCount--
		c.diedAt[m] = stage
		c.st.MachineLosses++
		c.pendingRecoveries++
		c.chargeRecoveryLocked(recoveryBytes)
		applied = append(applied, transition{m, false})
	}
	handler := c.lossHandler
	beginSim := c.simNanos
	c.mu.Unlock()
	if c.tracer.Enabled() {
		for _, tr := range applied {
			typ := trace.MachineLoss
			if tr.up {
				typ = trace.MachineRejoin
			}
			ev := trace.NewEvent(typ)
			ev.Stage, ev.Machine, ev.Bytes, ev.SimNanos = stage, tr.machine, recoveryBytes, beginSim
			c.tracer.Emit(ev)
		}
	}
	if handler != nil {
		// Outside the lock: handlers record recovery traffic through
		// Shuffle/Collect, which take the lock themselves.
		for _, tr := range applied {
			if !tr.up {
				handler(tr.machine)
			}
		}
	}
}

// emitWire publishes one real-socket traffic measurement. Wire bytes are
// observations of the physical backend, not modeled traffic: validators
// do not fold them into the Stats contract.
func (c *Cluster) emitWire(name string, stage int64, bytes int64) {
	if bytes <= 0 || !c.tracer.Enabled() {
		return
	}
	c.mu.Lock()
	sim := c.simNanos
	c.mu.Unlock()
	ev := trace.NewEvent(trace.Wire)
	ev.Name, ev.Stage, ev.Bytes, ev.SimNanos = name, stage, bytes, sim
	c.tracer.Emit(ev)
}

// stageError attributes a stage failure to its stage label so a panicking
// or failing task surfaces as "stage X failed because ..." instead of an
// anonymous error. Context cancellation passes through unwrapped: callers
// match it with errors.Is against the context sentinels, and a cancelled
// stage is the caller's doing, not the stage's.
func stageError(label string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("cluster: stage %q: %w", label, err)
}
