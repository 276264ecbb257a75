package obs

// RecorderState is a deep copy of a recorder's retained records, oldest
// first, and of their zone members.
type RecorderState struct {
	recs    []Record
	members []int32
	memHead uint32
	seq     uint64
	dropped uint64
}

// Snapshot captures the recorder's state; nil on a nil recorder.
func (r *Recorder) Snapshot() *RecorderState {
	if r == nil {
		return nil
	}
	return &RecorderState{
		recs:    r.Events(),
		members: append([]int32(nil), r.members[r.memHead-r.memBase:]...),
		memHead: r.memHead,
		seq:     r.seq,
		dropped: r.dropped,
	}
}

// Restore rewinds the recorder. A nil recorder ignores a nil state. The
// records are copied back into the recorder's own chunks, oldest in slot
// 0, and the arena back to the snapshot's live members at their
// positions, so the restored records resolve exactly as they did.
func (r *Recorder) Restore(s *RecorderState) {
	if r == nil || s == nil {
		return
	}
	r.members = append(r.members[:0], s.members...)
	r.memBase, r.memHead = s.memHead, s.memHead
	r.start, r.n = 0, 0
	for _, rec := range s.recs {
		r.push(rec)
	}
	r.seq = s.seq
	r.dropped = s.dropped
}
