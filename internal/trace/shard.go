package trace

import "sync/atomic"

// shardChunkEvents is the chunk size of a Shard. At 1024 events a chunk is
// ~72 KiB on 64-bit platforms: large enough that the amortized allocation
// cost of recording drops to ~1/1024 allocs per event.
const shardChunkEvents = 1024

// shardFirstChunkEvents sizes a retaining shard's first chunk. Most
// recording threads log a few dozen events in a run (a whole preparation
// run of a planted-bug test records ~72), so a full-size first chunk per
// thread would dominate the bytes a run allocates.
const shardFirstChunkEvents = 64

// Shard is a single-writer chunked event buffer: the per-thread building
// block of the Recorder and of the live runtime's per-goroutine trace
// shards. Events are appended into chunks; once a chunk fills it is sealed
// and a fresh one is allocated, so the steady-state cost of
// Append is one slot store — no per-event allocation and no grow-by-copy of
// previously recorded events (the failure mode of a single append-grown
// slice, which re-copies the whole history every doubling).
//
// Clock pointers are stored as-is: vclock.Clock is immutable, so sharing
// the pointer across every event a thread records between two forks is
// safe and keeps chunks compact.
//
// A retaining shard starts with a small first chunk (shardFirstChunkEvents)
// and continues in full-size ones, so short runs stay small.
//
// A Shard must only be appended to by one writer at a time; merging
// (AppendTo) may happen on another thread once the writer has stopped. The
// zero value is an empty shard ready for use.
//
// Two optional extensions serve streaming consumers (the live runtime's
// continuous merge pipeline):
//
//   - OnChunk, when set before the first Append, receives each filled
//     chunk instead of the shard retaining it — the handoff point into a
//     ring buffer feeding a merger goroutine. Flush emits the final,
//     partially filled chunk once the writer has stopped.
//   - Seal marks the shard closed from ANY goroutine: the writer's
//     subsequent Appends are dropped (counted via OnDrop) instead of
//     recorded. This is the abandonment fence for timed-out live runs,
//     whose leaked goroutines cannot be killed but must not keep feeding
//     events into a shard the detector has walked away from.
type Shard struct {
	full [][]Event // sealed chunks, each filled to capacity
	cur  []Event   // open chunk being filled

	// OnChunk, when non-nil, receives every filled chunk in append order
	// (called from the writer goroutine); the shard retains nothing. Set
	// it before the first Append and never change it afterwards.
	OnChunk func(chunk []Event)

	// OnDrop, when non-nil, is called once per event dropped after Seal
	// (from the — possibly leaked — writer goroutine). Set it before the
	// shard is shared and never change it afterwards.
	OnDrop func()

	// sealed is the cross-goroutine abandonment flag; dropped counts the
	// appends that arrived after it was raised.
	sealed  atomic.Bool
	dropped atomic.Int64
}

// Append records one event. Amortized zero-allocation: only a filled chunk
// makes the call allocate (a fresh chunk). It reports whether
// the event was recorded — false once the shard has been Sealed, in which
// case the event is dropped and counted instead.
func (s *Shard) Append(e Event) bool {
	if s.sealed.Load() {
		s.dropped.Add(1)
		if s.OnDrop != nil {
			s.OnDrop()
		}
		return false
	}
	if len(s.cur) == cap(s.cur) {
		size := shardChunkEvents
		if s.cur != nil {
			if s.OnChunk != nil {
				s.OnChunk(s.cur)
			} else {
				s.full = append(s.full, s.cur)
			}
		} else if s.OnChunk == nil {
			size = shardFirstChunkEvents
		}
		s.cur = make([]Event, 0, size)
	}
	s.cur = append(s.cur, e)
	return true
}

// Seal closes the shard: every later Append is dropped (and counted)
// rather than recorded. Unlike every other method, Seal is safe to call
// from a goroutine other than the writer — it is the abandonment fence a
// timed-out run's detector raises while the run's leaked goroutines may
// still be executing. An in-flight Append racing the Seal may still land;
// sealing guarantees only that the drop window opens within one event.
func (s *Shard) Seal() { s.sealed.Store(true) }

// Sealed reports whether the shard has been sealed.
func (s *Shard) Sealed() bool { return s.sealed.Load() }

// Dropped reports how many appends were dropped after Seal.
func (s *Shard) Dropped() int64 { return s.dropped.Load() }

// Flush emits the open, partially filled chunk through OnChunk and resets
// it. Writer-side only (or strictly after the writer has stopped): it
// touches the same state as Append. A no-op without OnChunk or when the
// open chunk is empty.
func (s *Shard) Flush() {
	if s.OnChunk == nil || len(s.cur) == 0 {
		return
	}
	s.OnChunk(s.cur)
	s.cur = nil
}

// Len reports the number of events currently retained by the shard (with
// OnChunk set, filled chunks are handed off and no longer counted here).
func (s *Shard) Len() int {
	n := len(s.cur)
	for _, c := range s.full {
		n += len(c)
	}
	return n
}

// AppendTo flushes the shard's retained events, in append order, onto dst
// and returns the extended slice. The shard itself is not modified.
func (s *Shard) AppendTo(dst []Event) []Event {
	for _, c := range s.full {
		dst = append(dst, c...)
	}
	return append(dst, s.cur...)
}

// scatter places every buffered event at dst[e.Seq]. The Recorder stamps
// Seq in global record order before the event reaches its shard, so
// scattering all shards into one pre-sized slice reconstructs the exact
// interleaved order a single append-grown recorder would have produced —
// which is what keeps merged traces byte-identical through the codecs.
func (s *Shard) scatter(dst []Event) {
	for _, c := range s.full {
		for i := range c {
			dst[c[i].Seq] = c[i]
		}
	}
	for i := range s.cur {
		dst[s.cur[i].Seq] = s.cur[i]
	}
}
