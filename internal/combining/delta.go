package combining

// Delta compression for upstream queue vectors (the hierarchical plane's
// bandwidth lever): instead of shipping the full per-principal aggregate
// every epoch, a sender transmits only the principals whose statistics
// moved by more than a configurable threshold since their last transmitted
// value. Two rules bound the loss:
//
//   - transitions to exactly zero are always transmitted, so an idle
//     principal is never stuck at a stale nonzero queue estimate, and
//   - every ResyncEvery-th frame is a full-state resync, so suppressed
//     drift (at most the threshold per statistic) is flushed periodically.
//
// Frames are sequence-numbered per sender stream. A receiver that misses a
// frame (the tree transport is best-effort) detects the gap, discards
// deltas, and waits for the next full frame — it never applies a delta to
// a base it does not hold.

// deltaEntryBytes is the bookkeeping estimate of one suppressed entry's
// wire cost (four statistics plus an index in the JSON envelope), used for
// the bytes-saved counter.
const deltaEntryBytes = 52

// DeltaFrame is the wire form of one delta-compressed aggregate. A full
// frame (Full true) carries dense statistic vectors of length N; a delta
// frame carries sparse entries at the positions listed in Idx.
type DeltaFrame struct {
	// Seq numbers frames consecutively per sender stream.
	Seq uint64 `json:"seq"`
	// Full marks a resync frame carrying the complete vector.
	Full bool `json:"full,omitempty"`
	// N is the principal-vector length.
	N int `json:"n"`
	// Count is the aggregate's contributing-node count (always carried;
	// it is one scalar).
	Count int `json:"count"`
	// Idx lists the principal indices of the sparse entries (delta frames
	// only).
	Idx []int `json:"idx,omitempty"`
	// Sum, Max, Min, SumSq are the statistic values: dense when Full,
	// parallel to Idx otherwise.
	Sum   []float64 `json:"sum,omitempty"`
	Max   []float64 `json:"max,omitempty"`
	Min   []float64 `json:"min,omitempty"`
	SumSq []float64 `json:"sumsq,omitempty"`
}

// DeltaStats counts a delta codec's work. Encoder-side counters accumulate
// per stream and are summed by the transport; Desyncs is receiver-side.
type DeltaStats struct {
	// Frames is the number of frames encoded.
	Frames uint64
	// FullFrames is how many of them were full-state resyncs.
	FullFrames uint64
	// EntriesSent counts transmitted per-principal entries.
	EntriesSent uint64
	// EntriesSuppressed counts entries withheld as under-threshold.
	EntriesSuppressed uint64
	// BytesSaved estimates the wire bytes avoided by suppression.
	BytesSaved uint64
	// Desyncs counts receiver-side sequence gaps (frames discarded until
	// the next full frame).
	Desyncs uint64
}

// Add accumulates other into s.
func (s *DeltaStats) Add(other DeltaStats) {
	s.Frames += other.Frames
	s.FullFrames += other.FullFrames
	s.EntriesSent += other.EntriesSent
	s.EntriesSuppressed += other.EntriesSuppressed
	s.BytesSaved += other.BytesSaved
	s.Desyncs += other.Desyncs
}

// DeltaEncoder compresses one sender→receiver aggregate stream. Not
// concurrency-safe; the transport serializes access per peer.
type DeltaEncoder struct {
	n           int
	threshold   float64
	resyncEvery int
	seq         uint64
	sinceFull   int
	primed      bool // the receiver lineage holds a full frame
	last        Aggregate
	stats       DeltaStats
}

// NewDeltaEncoder returns an encoder for n-principal vectors. Entries move
// only when a statistic changed by more than threshold (or went to zero);
// every resyncEvery-th frame is a full resync (values < 1 mean every
// frame, i.e. compression off).
func NewDeltaEncoder(n int, threshold float64, resyncEvery int) *DeltaEncoder {
	if resyncEvery < 1 {
		resyncEvery = 1
	}
	if threshold < 0 {
		threshold = 0
	}
	return &DeltaEncoder{n: n, threshold: threshold, resyncEvery: resyncEvery, last: NewAggregate(n)}
}

// Reset forces the next frame to be a full resync (called after the
// transport reconnects: the receiver may have restarted or missed frames).
func (e *DeltaEncoder) Reset() { e.primed = false }

// N returns the principal-vector length this encoder was built for.
func (e *DeltaEncoder) N() int { return e.n }

// Stats returns the encoder's counters.
func (e *DeltaEncoder) Stats() DeltaStats { return e.stats }

// Encode compresses a into the next frame of the stream.
func (e *DeltaEncoder) Encode(a Aggregate) DeltaFrame {
	e.seq++
	e.stats.Frames++
	full := !e.primed || e.sinceFull >= e.resyncEvery-1
	f := DeltaFrame{Seq: e.seq, N: e.n, Count: a.Count}
	if full {
		f.Full = true
		f.Sum = append([]float64(nil), a.Sum...)
		f.Max = append([]float64(nil), a.Max...)
		f.Min = append([]float64(nil), a.Min...)
		f.SumSq = append([]float64(nil), a.SumSq...)
		e.last = a.clone()
		e.primed = true
		e.sinceFull = 0
		e.stats.FullFrames++
		e.stats.EntriesSent += uint64(e.n)
		return f
	}
	e.sinceFull++
	for i := 0; i < e.n && i < len(a.Sum); i++ {
		if !e.dirty(a, i) {
			e.stats.EntriesSuppressed++
			e.stats.BytesSaved += deltaEntryBytes
			continue
		}
		f.Idx = append(f.Idx, i)
		f.Sum = append(f.Sum, a.Sum[i])
		f.Max = append(f.Max, a.Max[i])
		f.Min = append(f.Min, a.Min[i])
		f.SumSq = append(f.SumSq, a.SumSq[i])
		e.last.Sum[i] = a.Sum[i]
		e.last.Max[i] = a.Max[i]
		e.last.Min[i] = a.Min[i]
		e.last.SumSq[i] = a.SumSq[i]
		e.stats.EntriesSent++
	}
	e.last.Count = a.Count
	return f
}

// dirty reports whether principal i's entry must be transmitted: a
// statistic moved beyond the threshold, or any statistic transitioned to
// exactly zero (zeros are always exact on the wire).
func (e *DeltaEncoder) dirty(a Aggregate, i int) bool {
	pairs := [4][2]float64{
		{a.Sum[i], e.last.Sum[i]},
		{a.Max[i], e.last.Max[i]},
		{a.Min[i], e.last.Min[i]},
		{a.SumSq[i], e.last.SumSq[i]},
	}
	for _, p := range pairs {
		cur, prev := p[0], p[1]
		if cur == 0 && prev != 0 {
			return true
		}
		d := cur - prev
		if d < 0 {
			d = -d
		}
		if d > e.threshold {
			return true
		}
	}
	return false
}

// DeltaDecoder reconstructs a sender's aggregate stream. Not
// concurrency-safe; the transport serializes access per peer.
type DeltaDecoder struct {
	n       int
	agg     Aggregate
	seq     uint64
	synced  bool
	desyncs uint64
}

// NewDeltaDecoder returns a decoder for n-principal vectors.
func NewDeltaDecoder(n int) *DeltaDecoder {
	return &DeltaDecoder{n: n, agg: NewAggregate(n)}
}

// Desyncs returns how many frames the decoder discarded on sequence gaps.
func (d *DeltaDecoder) Desyncs() uint64 { return d.desyncs }

// N returns the principal-vector length this decoder was built for.
func (d *DeltaDecoder) N() int { return d.n }

// Apply folds one frame into the reconstructed state and returns the
// resulting aggregate. It returns ok false — and the caller must drop the
// message — when the frame is a delta that does not extend the decoder's
// sequence (lost frame, sender restart, or length mismatch), or when any
// frame's statistic vectors are ragged; the decoder then stays
// desynchronized until the next full frame.
func (d *DeltaDecoder) Apply(f DeltaFrame) (Aggregate, bool) {
	stats := Aggregate{Sum: f.Sum, Max: f.Max, Min: f.Min, SumSq: f.SumSq}
	if f.Full {
		if f.N != d.n || !stats.Uniform(d.n) {
			d.synced = false
			d.desyncs++
			return Aggregate{}, false
		}
		copy(d.agg.Sum, f.Sum)
		copy(d.agg.Max, f.Max)
		copy(d.agg.Min, f.Min)
		copy(d.agg.SumSq, f.SumSq)
		d.agg.Count = f.Count
		d.seq = f.Seq
		d.synced = true
		return d.agg.clone(), true
	}
	if !d.synced || f.Seq != d.seq+1 || f.N != d.n || !stats.Uniform(len(f.Idx)) {
		d.synced = false
		d.desyncs++
		return Aggregate{}, false
	}
	for k, i := range f.Idx {
		if i < 0 || i >= d.n {
			d.synced = false
			d.desyncs++
			return Aggregate{}, false
		}
		d.agg.Sum[i] = f.Sum[k]
		d.agg.Max[i] = f.Max[k]
		d.agg.Min[i] = f.Min[k]
		d.agg.SumSq[i] = f.SumSq[k]
	}
	d.agg.Count = f.Count
	d.seq = f.Seq
	return d.agg.clone(), true
}
