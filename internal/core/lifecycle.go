package core

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrClosed is reported by Err after Close terminates an iterator before
// enumeration was exhausted.
var ErrClosed = errors.New("core: iterator closed")

// exhausted is what the latch holds after a clean drain: no error.
var exhausted error

// Lifecycle is the latch behind the Iterator contract: enumeration is
// live until the first of exhaustion, Close, a failure or the context
// ending; from then on Proceed is false and Err says why. Iterators
// embed it and open every Next with Proceed. Close and Err may be called
// from any goroutine while another is inside Next (Next itself stays
// single-consumer): a Next already past Proceed finishes and may still
// deliver its result, every later one is false. The latch guards only
// itself — an iterator's queues and memo tables are never freed under a
// running Next, they are reclaimed with the iterator by the collector.
type Lifecycle struct {
	ctx context.Context
	// done is ctx.Done(), fetched once: polling the channel takes no
	// lock, which ctx.Err() on a cancelable context does.
	done <-chan struct{}
	// end is nil while live and set exactly once, to the address of the
	// error Err reports (&exhausted after a clean drain).
	end atomic.Pointer[error]
}

// NewLifecycle returns a live lifecycle observing ctx (nil means
// context.Background()).
func NewLifecycle(ctx context.Context) *Lifecycle {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Lifecycle{ctx: ctx, done: ctx.Done()}
}

// Proceed reports whether Next may produce another result: false once
// the iterator is closed, failed, exhausted, or its context is done
// (latching the context's error). Constructors that materialise output
// poll it too.
func (lc *Lifecycle) Proceed() bool {
	if lc.end.Load() != nil {
		return false
	}
	select {
	case <-lc.done:
		lc.Fail(lc.ctx.Err())
		return false
	default:
		return true
	}
}

// Exhaust marks natural completion: Err stays nil and Close is a no-op.
func (lc *Lifecycle) Exhaust() { lc.end.CompareAndSwap(nil, &exhausted) }

// Fail latches err and stops enumeration; the first latch wins.
func (lc *Lifecycle) Fail(err error) { lc.end.CompareAndSwap(nil, &err) }

// Err explains why Next returned false: nil after natural completion
// (and while live), ErrClosed after an early Close, or the context's
// error after cancellation.
func (lc *Lifecycle) Err() error {
	if end := lc.end.Load(); end != nil {
		return *end
	}
	return nil
}

// Close ends enumeration. Closing mid-enumeration latches ErrClosed;
// closing after exhaustion (or twice) is a no-op. It always returns nil
// so callers can defer it unconditionally.
func (lc *Lifecycle) Close() error {
	lc.end.CompareAndSwap(nil, &ErrClosed)
	return nil
}
