package engine

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"os"
	"time"

	"repro/internal/campaign"
)

// defaultLeaseTTL is the job-lease lifetime when Options.LeaseTTL is zero:
// long enough that a healthy holder's ttl/3 heartbeat never lets it lapse,
// short enough that a crashed holder's jobs are stolen promptly.
const defaultLeaseTTL = 30 * time.Second

// leaseWaitFloor is the first (pre-jitter) wait of a runner blocked on a
// sibling's lease; successive waits double up to leaseBackoff's cap.
const leaseWaitFloor = 2 * time.Millisecond

// leaseBackoff produces the jittered, exponentially growing waits a runner
// sleeps between lease checks. Doubling bounds the poll rate on long-held
// leases (the cap, TTL/4, still guarantees a crashed holder's lease is
// noticed well within a steal window); the ±50% jitter decorrelates
// waiters that blocked at the same instant, so N siblings waiting on one
// lease do not thunder in lock-step when it changes hands.
type leaseBackoff struct {
	step, max time.Duration
}

// newLeaseBackoff builds the schedule for one wait on a ttl-lived lease.
func newLeaseBackoff(ttl time.Duration) *leaseBackoff {
	max := ttl / 4
	if max < leaseWaitFloor {
		max = leaseWaitFloor
	}
	return &leaseBackoff{step: leaseWaitFloor, max: max}
}

// wait returns the next sleep: the current step jittered to a uniform draw
// from [step/2, 3·step/2), then doubles the step up to the cap.
func (b *leaseBackoff) wait() time.Duration {
	step := b.step
	b.step *= 2
	if b.step > b.max {
		b.step = b.max
	}
	return step/2 + time.Duration(mrand.Int64N(int64(step)))
}

// reset drops the schedule back to the floor — called when a notification
// (not a timeout) ended a sleep, meaning the lease state actually moved
// and the next check is likely to resolve the wait.
func (b *leaseBackoff) reset() { b.step = leaseWaitFloor }

// leaseOwnerID mints a fleet-unique lease owner identity for one engine:
// the PID disambiguates processes on one host, the random suffix
// disambiguates hosts and engine instances within a process.
func leaseOwnerID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion never happens on the platforms we run on;
		// degrade to PID-only rather than fail engine construction.
		return fmt.Sprintf("pid%d", os.Getpid())
	}
	return fmt.Sprintf("pid%d-%s", os.Getpid(), hex.EncodeToString(b[:]))
}

// leaseRunner is the campaign pool's JobCache and JobRunner on every
// engine: the pool looks each job up in the store through it, and each
// miss runs here under the store's job-lease protocol, on the engine's
// inner Runner (the dispatcher, or local execution). With a worker's
// Engine.ServeJob, it is the one place job results are written, and only
// successful ones: a job-level failure may be transient, and a published
// one would be served from then on. The argument that execution is
// at-most-once across every engine sharing the store, after the pool's
// lookup missed:
//
//  1. A job only executes while its executor holds the lease, and the lease
//     admits one live owner at a time.
//  2. The result is stored before the lease is released — in one
//     PublishJob step — so when a waiting sibling finally acquires the
//     lease, its double-check of the job store finds the result and it
//     does not execute.
//  3. A lease is only stolen after its TTL lapses, and a healthy holder
//     renews at ttl/3 — so a steal implies the holder crashed or stalled
//     beyond the TTL, the one case where re-execution is the intended
//     outcome (results are deterministic, so even that race is benign for
//     artifact bytes; it costs duplicate work only).
//
// Waiting is event-driven: a blocked runner arms the store's LeaseChanged
// notifier, polls the lease read-only via PeekJobLease (no fsync'd append
// per poll), and sleeps on a jittered exponential backoff between checks —
// woken early by any in-process release or publish.
type leaseRunner struct {
	inner     Runner
	store     Store
	owner     string
	ttl       time.Duration
	traceHash string // the campaign's resolved trace hash, pinned into every key
	m         *engineMetrics
}

// Lookup implements campaign.JobCache.
func (l *leaseRunner) Lookup(spec campaign.Spec, job campaign.Job) (campaign.JobResult, bool) {
	l.m.jobKeys.Inc()
	jr, ok := storedJob(l.store, JobKey(spec, job, l.traceHash))
	if !ok {
		l.m.cacheMisses.Inc()
		return campaign.JobResult{}, false
	}
	l.m.cacheHits.Inc()
	return jr, true
}

// storedJob is the one read of a stored job result. A stored failure counts
// as a miss, like no result at all: this engine never publishes one, but a
// store written by an older engine may hold one, and serving it would fail
// the job for good. The next execution's PublishJob overwrites it.
func storedJob(store Store, key string) (campaign.JobResult, bool) {
	jr, err := store.Job(key)
	return jr, err == nil && jr.Error == ""
}

// RunJob implements campaign.JobRunner.
func (l *leaseRunner) RunJob(ctx context.Context, spec campaign.Spec, job campaign.Job) (campaign.JobResult, error) {
	l.m.jobKeys.Inc()
	key := JobKey(spec, job, l.traceHash)
	jr, acquired, err := l.acquire(ctx, key)
	if err != nil || !acquired {
		// A failed wait, or the holder published while this runner
		// waited — served, not executed.
		return jr, err
	}

	// Double-check under the lease: if the previous holder published
	// before releasing (the protocol's write order), serve its result.
	if jr, ok := storedJob(l.store, key); ok {
		_ = l.store.ReleaseJobLease(key, l.owner)
		l.m.leaseServed.Inc()
		return jr, nil
	}

	// Heartbeat for the duration of the execution so a long job outlives
	// its TTL. Renewals are writes, but they ride the store's group
	// committer with everything else.
	hbDone := make(chan struct{})
	hbStopped := make(chan struct{})
	go func() {
		defer close(hbStopped)
		t := time.NewTicker(l.ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-t.C:
				_ = l.store.AcquireJobLease(key, l.owner, l.ttl)
			}
		}
	}()

	jr, err = l.inner.RunJob(ctx, key, spec, job)
	close(hbDone)
	<-hbStopped

	// Publish before releasing — the order the at-most-once argument
	// rests on, folded into one store step. A failure, or a publish that
	// did not land, releases instead, so a sibling is never deadlocked on
	// a dead lease; the job's own result stands either way.
	if err != nil || !publishJob(l.store, key, l.owner, jr) {
		_ = l.store.ReleaseJobLease(key, l.owner)
	}
	return jr, err
}

// publishJob is the one write path of a job result: it publishes jr under
// key (releasing owner's lease on it, when held) and reports whether it
// did. A job-level failure is never published. A failed write is not
// surfaced: it only costs a future recomputation, never the job that just
// succeeded.
func publishJob(store Store, key, owner string, jr campaign.JobResult) bool {
	return jr.Error == "" && store.PublishJob(key, owner, jr) == nil
}

// acquire claims key's lease, waiting out a live holder. acquired is false
// when the wait ended with the holder's published result instead — the
// normal way a wait ends. While blocked, the runner stays read-only
// against the store: it arms the in-process notifier before every check
// (so no release or publish between check and sleep is missed), peeks the
// lease instead of re-attempting the acquire while a live sibling
// demonstrably holds it, and sleeps on jittered exponential backoff capped
// at TTL/4 between checks.
func (l *leaseRunner) acquire(ctx context.Context, key string) (campaign.JobResult, bool, error) {
	err := l.store.AcquireJobLease(key, l.owner, l.ttl)
	if err == nil {
		l.m.leaseAcquired.Inc()
		return campaign.JobResult{}, true, nil
	}
	if !errors.Is(err, ErrLeaseHeld) {
		return campaign.JobResult{}, false, fmt.Errorf("%w: acquiring job lease: %v", ErrStore, err)
	}

	l.m.leaseWaits.Inc()
	start := time.Now()
	defer func() { l.m.leaseWaitSecs.Observe(time.Since(start).Seconds()) }()

	backoff := newLeaseBackoff(l.ttl)
	for {
		// Arm the wakeup before reading any state: a publish or release
		// landing between the checks below and the select still fires the
		// channel.
		wake := l.store.LeaseChanged()
		if jr, ok := storedJob(l.store, key); ok {
			l.m.leaseServed.Inc()
			return jr, false, nil
		}
		// While a live sibling holds the lease, an acquire attempt is a
		// foregone conclusion that costs an exclusive-lock write
		// transaction on the shared backend — peek read-only instead and
		// only attempt the acquire when the lease looks free (or the peek
		// cannot say).
		if owner, held, perr := l.store.PeekJobLease(key); perr != nil || !held || owner == l.owner {
			err := l.store.AcquireJobLease(key, l.owner, l.ttl)
			if err == nil {
				l.m.leaseAcquired.Inc()
				return campaign.JobResult{}, true, nil
			}
			if !errors.Is(err, ErrLeaseHeld) {
				return campaign.JobResult{}, false, fmt.Errorf("%w: acquiring job lease: %v", ErrStore, err)
			}
		}
		select {
		case <-ctx.Done():
			return campaign.JobResult{}, false, ctx.Err()
		case <-wake:
			backoff.reset()
		case <-time.After(backoff.wait()):
		}
	}
}
