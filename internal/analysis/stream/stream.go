// Package stream implements the analysis tier as a pipeline of mergeable,
// single-pass accumulators (DESIGN.md §11).
//
// The batch pipeline in internal/analysis materialises the whole dataset
// and re-scans it per table. This package computes the same tables online:
// records are Observed one at a time, per-device ingest/coalesce state lives
// in a small deviceCursor that emits finalized PanicEvent/HLEvents, and each
// experiment folds those events into O(devices + bins) reducer state.
// Partial accumulators built over disjoint device shards Merge into one,
// and every floating-point result is computed at Snapshot time in canonical
// (sorted-device, sorted-key) order, so streaming, batch, and shard-merged
// runs produce byte-identical tables.
//
// Input contract: per device, records must be fed in non-decreasing Time
// order with non-decreasing down-event (PrevTime) order — the natural order
// of a logger's log, of an exported dataset, and of a collected log merged
// by collect.Dataset.PutMerged. Devices may be interleaved arbitrarily.
package stream

import (
	"errors"
	"fmt"
	"time"

	"symfail/internal/core"
)

// Accumulator is the contract every streaming experiment implements.
//
// Observe folds one record into the accumulator; per device, records must
// arrive in the package's input order (see the package comment). Merge
// absorbs another accumulator of the same concrete type built over a
// disjoint device set, leaving the argument sealed; it reports ErrSealed,
// ErrTypeMismatch, ErrConfigMismatch or ErrDeviceOverlap without modifying
// either side.
//
// Snapshot is an epoch snapshot: a repeatable, read-only seal of the
// current epoch. On a live accumulator it finalizes a deep copy of the
// pending per-device state and renders the experiment's result from the
// copy, so Observe and Merge may continue afterwards and a later Snapshot
// reflects the records observed since. Snapshot of a fully-fed accumulator
// is byte-identical to the snapshot after Seal.
//
// Seal finalizes the accumulator destructively — the batch path: pending
// cursor state is flushed in place, further Merges return ErrSealed,
// further Observes panic, and Snapshot returns the cached final result.
// The batch finalizers (Tables, Rows, Report, Stats, Finish) seal
// implicitly.
//
// Merge is associative and order-insensitive: any merge tree over any
// device-disjoint sharding of the same observations snapshots to identical
// bytes, because all cross-device floating-point arithmetic is deferred to
// Snapshot and performed in canonical order.
type Accumulator interface {
	Observe(deviceID string, r core.Record)
	Merge(other Accumulator) error
	Snapshot() any
	Seal()
}

// Config tunes the analysis thresholds, defaulting to the paper's choices.
// It is the streaming twin of (and aliased by) analysis.Options.
type Config struct {
	// SelfShutdownThreshold separates self-shutdowns (short automatic
	// reboots) from user-triggered power cycles. The paper picks 360 s
	// after inspecting Figure 2.
	SelfShutdownThreshold time.Duration
	// CoalescenceWindow groups panics with high-level events. The paper
	// picks five minutes after the window sweep of Figure 4.
	CoalescenceWindow time.Duration
	// BurstWindow groups panics into cascades: two panics closer than the
	// window belong to the same burst.
	BurstWindow time.Duration
	// Window is the hard-cutoff horizon of the windowed accumulators
	// (WindowAcc): a snapshot covers the last Window of simulated time,
	// in whole simulated days, ending at the latest observed day.
	Window time.Duration
	// DecayHalfLife is the exponential-decay horizon of the decaying
	// accumulators (DecayAcc): a bucket one half-life old weighs half as
	// much as today's.
	DecayHalfLife time.Duration
}

// DefaultConfig returns the paper's thresholds, a 30-day window and a
// 7-day half-life for the continuous-operation accumulators.
func DefaultConfig() Config {
	return Config{
		SelfShutdownThreshold: 360 * time.Second,
		CoalescenceWindow:     5 * time.Minute,
		BurstWindow:           2 * time.Minute,
		Window:                30 * 24 * time.Hour,
		DecayHalfLife:         7 * 24 * time.Hour,
	}
}

// WithDefaults fills unset (non-positive) thresholds with the paper's.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.SelfShutdownThreshold <= 0 {
		c.SelfShutdownThreshold = d.SelfShutdownThreshold
	}
	if c.CoalescenceWindow <= 0 {
		c.CoalescenceWindow = d.CoalescenceWindow
	}
	if c.BurstWindow <= 0 {
		c.BurstWindow = d.BurstWindow
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.DecayHalfLife <= 0 {
		c.DecayHalfLife = d.DecayHalfLife
	}
	return c
}

// Merge errors. All are wrapped, so errors.Is works on the results.
var (
	// ErrSealed: the accumulator (or its argument) has been sealed by
	// Seal (or a batch finalizer) and can no longer change.
	ErrSealed = errors.New("stream: accumulator sealed")
	// ErrDeviceOverlap: both sides observed the same device. Shards must
	// be device-disjoint; records of one device cannot be split.
	ErrDeviceOverlap = errors.New("stream: device observed by both merge sides")
	// ErrTypeMismatch: Merge was handed a different accumulator type.
	ErrTypeMismatch = errors.New("stream: cannot merge different accumulator types")
	// ErrConfigMismatch: both sides must use identical thresholds.
	ErrConfigMismatch = errors.New("stream: cannot merge accumulators with different configs")
)

// RegisteredAccumulators is the closed set of Accumulator implementations,
// keyed by type name. The symlint accmerge analyzer statically cross-checks
// this table against the types in this package that implement Accumulator,
// in both directions, and TestRegisteredAccumulators cross-checks it against
// NewRegistered — adding an implementation without registering it here (or
// vice versa) fails `make lint` and the test suite.
var RegisteredAccumulators = map[string]bool{
	"Tables":         true,
	"Collect":        true,
	"Monitor":        true,
	"PanicTableAcc":  true,
	"RebootAcc":      true,
	"MTBFAcc":        true,
	"CoalescenceAcc": true,
	"BurstAcc":       true,
	"ActivityAcc":    true,
	"AppsAcc":        true,
	"WindowAcc":      true,
	"DecayAcc":       true,
}

// NewRegistered constructs one accumulator of every registered type, keyed
// exactly like RegisteredAccumulators. Tests use it to run the merge-law
// suite over every implementation without hand-maintaining a second list.
func NewRegistered(cfg Config) map[string]Accumulator {
	return map[string]Accumulator{
		"Tables":         NewTables(cfg),
		"Collect":        NewCollect(cfg),
		"Monitor":        NewMonitor(),
		"PanicTableAcc":  NewPanicTableAcc(cfg),
		"RebootAcc":      NewRebootAcc(cfg),
		"MTBFAcc":        NewMTBFAcc(cfg),
		"CoalescenceAcc": NewCoalescenceAcc(cfg),
		"BurstAcc":       NewBurstAcc(cfg),
		"ActivityAcc":    NewActivityAcc(cfg),
		"AppsAcc":        NewAppsAcc(cfg),
		"WindowAcc":      NewWindowAcc(cfg),
		"DecayAcc":       NewDecayAcc(cfg),
	}
}

// Peek is a cheap, non-sealing progress summary of an accumulator. Counts
// cover finalized events only: the per-device cursors may still hold a few
// events whose coalescence window has not passed.
type Peek struct {
	Devices  int
	Records  int
	Panics   int
	HLEvents int
	Reboots  int
}

func typeErr(want string, got Accumulator) error {
	return fmt.Errorf("%w: %s vs %T", ErrTypeMismatch, want, got)
}
