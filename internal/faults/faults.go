// Package faults is a deterministic, seedable fault injector for the
// scoring path. The paper's offload boundaries — process invocation (O),
// PCIe/IPC data movement (L) and kernel execution (C) — are exactly where
// transient failures live in production: device-busy rejections, corrupted
// transfers, crashed external processes and outright hangs. The engine
// simulators consult an Injector at those boundaries, so every failure mode
// surfaces at the same place in the timeline where the paper charges its
// overheads.
//
// Faults are described by Rules compiled from a compact plan string
// (see Parse). Each rule carries its own split of the seed, so the decision
// sequence for a rule depends only on the seed and on how many operations
// matched that rule — running the same plan over the same serial operation
// stream reproduces the exact same fault sequence, which is what the
// conformance fault-determinism check pins.
//
// A hang is a real injected delay, not an error: Check sleeps, bounded by
// the operation's context, so per-attempt timeouts and per-query deadlines
// are genuinely exercised. All other kinds return typed errors that callers
// classify with Retryable.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"accelscore/internal/xrand"
)

// Typed fault errors. Busy, corrupt and hang are transient conditions a
// caller may retry; a crashed invocation is fatal for the attempt and the
// caller should degrade (fall back) instead of retrying the same device.
var (
	// ErrDeviceBusy models a device rejecting new work (GPU OOM/queue-full,
	// FPGA CSR busy). Retryable.
	ErrDeviceBusy = errors.New("faults: device busy")
	// ErrTransferCorrupt models a failed/corrupted PCIe or IPC transfer.
	// Retryable.
	ErrTransferCorrupt = errors.New("faults: transfer corrupt")
	// ErrInvokeCrash models the external runtime or device process dying
	// mid-invocation. Fatal: retrying the same device is pointless.
	ErrInvokeCrash = errors.New("faults: invocation crashed")
	// ErrDeviceHang is returned when an injected hang outlives the
	// operation's context — the caller's deadline fired while the device was
	// unresponsive. Retryable (on a fresh attempt or another device).
	ErrDeviceHang = errors.New("faults: device hang")
)

// Retryable reports whether the error is a transient injected fault that a
// bounded-retry policy may re-attempt. Fatal faults (ErrInvokeCrash) and
// everything that is not an injected fault return false.
func Retryable(err error) bool {
	return errors.Is(err, ErrDeviceBusy) ||
		errors.Is(err, ErrTransferCorrupt) ||
		errors.Is(err, ErrDeviceHang)
}

// Injected reports whether the error originated from a fault injector.
func Injected(err error) bool {
	return Retryable(err) || errors.Is(err, ErrInvokeCrash)
}

// Boundary identifies where in an engine's simulated execution an operation
// sits, following the Fig. 6 O/L/C taxonomy.
type Boundary string

const (
	// BoundaryInvoke is the offload-overhead boundary O: process/session/
	// device invocation.
	BoundaryInvoke Boundary = "invoke"
	// BoundaryTransfer is the data-movement boundary L: PCIe or IPC
	// transfers.
	BoundaryTransfer Boundary = "transfer"
	// BoundaryCompute is the kernel-execution boundary C.
	BoundaryCompute Boundary = "compute"
)

// Kind enumerates the injectable failure modes.
type Kind string

const (
	KindBusy    Kind = "busy"
	KindCorrupt Kind = "corrupt"
	KindCrash   Kind = "crash"
	KindHang    Kind = "hang"
)

// Rule matches a class of operations and decides when to fire. Exactly one
// of the trigger fields (P, EveryN, Once, First) should be set; all unset
// means fire on every match.
type Rule struct {
	// Backend matches the engine name exactly, or "*" for every engine.
	Backend string
	// Boundary matches one O/L/C boundary, or "*" for all three.
	Boundary Boundary
	// Kind selects the failure mode.
	Kind Kind
	// HangFor is the injected delay for KindHang (required for hangs).
	HangFor time.Duration
	// P fires with this probability per matching operation (0 < P <= 1).
	P float64
	// EveryN fires on every Nth matching operation.
	EveryN int
	// Once fires exactly once, on the Nth matching operation.
	Once int
	// First fires on each of the first N matching operations (a burst —
	// the way to trip a consecutive-failure circuit breaker on purpose).
	First int
}

// matches reports whether the rule applies to the operation.
func (r *Rule) matches(backendName string, b Boundary) bool {
	if r.Backend != "*" && r.Backend != backendName {
		return false
	}
	return r.Boundary == "*" || r.Boundary == b
}

// validate rejects rules the injector cannot execute.
func (r *Rule) validate() error {
	switch r.Kind {
	case KindBusy, KindCorrupt, KindCrash:
	case KindHang:
		if r.HangFor <= 0 {
			return fmt.Errorf("faults: hang rule needs a positive duration")
		}
	default:
		return fmt.Errorf("faults: unknown fault kind %q", r.Kind)
	}
	set := 0
	if r.P != 0 {
		if r.P < 0 || r.P > 1 {
			return fmt.Errorf("faults: probability %v outside (0, 1]", r.P)
		}
		set++
	}
	if r.EveryN != 0 {
		if r.EveryN < 1 {
			return fmt.Errorf("faults: every=%d must be >= 1", r.EveryN)
		}
		set++
	}
	if r.Once != 0 {
		if r.Once < 1 {
			return fmt.Errorf("faults: once=%d must be >= 1", r.Once)
		}
		set++
	}
	if r.First != 0 {
		if r.First < 1 {
			return fmt.Errorf("faults: first=%d must be >= 1", r.First)
		}
		set++
	}
	if set > 1 {
		return fmt.Errorf("faults: rule mixes triggers (choose one of p/every/once/first)")
	}
	switch r.Boundary {
	case BoundaryInvoke, BoundaryTransfer, BoundaryCompute, "*":
	default:
		return fmt.Errorf("faults: unknown boundary %q", r.Boundary)
	}
	if r.Backend == "" {
		return fmt.Errorf("faults: rule needs a backend name (or *)")
	}
	return nil
}

// Event records one fired fault for the injector's log and OnFault hook.
type Event struct {
	// Seq numbers fired faults in injector order, starting at 1.
	Seq int
	// Backend and Boundary locate the operation the fault hit.
	Backend  string
	Boundary Boundary
	// Kind is the injected failure mode.
	Kind Kind
	// Rule is the index of the firing rule in the injector's plan.
	Rule int
}

// ruleState pairs a rule with its per-rule counter and RNG stream.
type ruleState struct {
	Rule
	rng   *xrand.Rand
	count int // matching operations seen
	fired int // faults fired
}

// Injector decides, deterministically, which operations fail. It is safe
// for concurrent use; under a serial operation stream the decision sequence
// is a pure function of (seed, plan, stream).
type Injector struct {
	// OnFault, when set before the injector is used, observes every fired
	// fault (the serving layer wires it to a metrics counter). Called
	// without internal locks held.
	OnFault func(Event)

	mu    sync.Mutex
	rules []*ruleState
	log   []Event
	seq   int
}

// maxLog bounds the retained event log; chaos runs inject thousands of
// faults and only the sequence prefix matters for determinism checks.
const maxLog = 4096

// NewInjector builds an injector over the plan. Each rule receives an
// independent RNG stream split from seed, so adding a rule never perturbs
// another rule's decisions.
func NewInjector(seed uint64, rules []Rule) (*Injector, error) {
	root := xrand.New(seed)
	in := &Injector{rules: make([]*ruleState, 0, len(rules))}
	for i := range rules {
		r := rules[i]
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		in.rules = append(in.rules, &ruleState{Rule: r, rng: root.Split()})
	}
	return in, nil
}

// Check is the boundary hook engines call: it decides whether this
// operation faults. Error kinds return a typed, wrapped error immediately.
// A hang sleeps for the rule's duration bounded by ctx — if ctx expires
// first, Check returns ErrDeviceHang wrapped with the context error;
// otherwise the hang was survived and Check returns nil (the delay is the
// fault). A nil injector never faults.
func (in *Injector) Check(ctx context.Context, backendName string, b Boundary) error {
	if in == nil {
		return nil
	}
	var (
		fire *ruleState
		ev   Event
	)
	in.mu.Lock()
	for i, rs := range in.rules {
		if !rs.matches(backendName, b) {
			continue
		}
		rs.count++
		if !rs.decideLocked() {
			continue
		}
		rs.fired++
		in.seq++
		ev = Event{Seq: in.seq, Backend: backendName, Boundary: b, Kind: rs.Kind, Rule: i}
		if len(in.log) < maxLog {
			in.log = append(in.log, ev)
		}
		fire = rs
		break // one fault per boundary crossing is enough
	}
	in.mu.Unlock()
	if fire == nil {
		return nil
	}
	if in.OnFault != nil {
		in.OnFault(ev)
	}
	switch fire.Kind {
	case KindBusy:
		return fmt.Errorf("%s at %s/%s: %w", KindBusy, backendName, b, ErrDeviceBusy)
	case KindCorrupt:
		return fmt.Errorf("%s at %s/%s: %w", KindCorrupt, backendName, b, ErrTransferCorrupt)
	case KindCrash:
		return fmt.Errorf("%s at %s/%s: %w", KindCrash, backendName, b, ErrInvokeCrash)
	case KindHang:
		t := time.NewTimer(fire.HangFor)
		defer t.Stop()
		select {
		case <-t.C:
			return nil // survived the stall; only the delay was injected
		case <-ctx.Done():
			return fmt.Errorf("hang at %s/%s interrupted (%v): %w",
				backendName, b, ctx.Err(), ErrDeviceHang)
		}
	}
	return nil
}

// decideLocked applies the rule's trigger to its updated counter.
func (rs *ruleState) decideLocked() bool {
	switch {
	case rs.P > 0:
		return rs.rng.Float64() < rs.P
	case rs.EveryN > 0:
		return rs.count%rs.EveryN == 0
	case rs.Once > 0:
		return rs.count == rs.Once
	case rs.First > 0:
		return rs.count <= rs.First
	default:
		return true
	}
}

// Events returns a copy of the fired-fault log in firing order.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.log...)
}
