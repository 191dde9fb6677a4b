// The delegation circuit breaker: the server's graceful-degradation
// switch between cluster execution and the byte-identical serial path.

package cluster

import (
	"sync"
	"time"
)

// Breaker is a consecutive-failure circuit breaker. Closed, it allows
// calls; after Threshold consecutive failures it opens and Allow
// refuses until Cooldown has elapsed since the trip, after which one
// probe call is allowed through (half-open) — its outcome closes the
// breaker or re-arms the cooldown.
//
// It deliberately has no goroutines and takes `now` as an argument on
// the state-changing methods, so chaos tests drive it with a synthetic
// clock and its transitions are exactly replayable.
type Breaker struct {
	// Threshold is how many consecutive failures trip the breaker
	// (values < 1 read as 1).
	Threshold int
	// Cooldown is how long an open breaker refuses before allowing a
	// probe.
	Cooldown time.Duration

	mu       sync.Mutex
	failures int
	openedAt time.Time
	open     bool
	probing  bool
	trips    int64
}

// Allow reports whether a call may proceed at time now. While open and
// cooling down it returns false; once the cooldown elapses it admits a
// single probe (further Allow calls return false until that probe
// reports Success or Failure).
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing || now.Sub(b.openedAt) < b.Cooldown {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful call: the breaker closes and the failure
// streak resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.open = false
	b.probing = false
}

// Failure records a failed call at time now; it may trip the breaker.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	threshold := b.Threshold
	if threshold < 1 {
		threshold = 1
	}
	b.failures++
	if b.probing {
		// The probe failed: stay open, restart the cooldown.
		b.probing = false
		b.openedAt = now
		return
	}
	if !b.open && b.failures >= threshold {
		b.open = true
		b.openedAt = now
		b.trips++
	}
}

// Open reports whether the breaker currently refuses calls at time now
// (false once the cooldown has elapsed, even before a probe runs).
func (b *Breaker) Open(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open && (b.probing || now.Sub(b.openedAt) < b.Cooldown)
}

// Trips returns how many times the breaker has tripped open — a
// monotonic gauge for /v1/status.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
