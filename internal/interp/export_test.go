package interp

// CheckpointCallSites returns, for every snapshot of ck, the fault sites
// of the result-bearing calls in flight there: the occurrence still
// awaiting its return value and the one before it. Their occurrence
// counts are where a snapshot's per-instruction counts differ from the
// profile's.
func CheckpointCallSites(ck *Checkpoints) []Fault {
	var sites []Fault
	for _, s := range ck.snaps {
		for _, fr := range s.frames {
			if fr.callID < 0 {
				continue
			}
			id := int(fr.callID)
			sites = append(sites, Fault{InstrID: id, DynIndex: s.seen[id]})
			if s.seen[id] > 0 {
				sites = append(sites, Fault{InstrID: id, DynIndex: s.seen[id] - 1})
			}
		}
	}
	return sites
}
