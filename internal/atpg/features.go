package atpg

// Per-fault structural features for the effort log: everything here is
// computable without solving — fanout-cone shape, the size of the
// sub-circuit the formula encodes and SCOAP testability. The effort
// report correlates each column against the observed solver effort.

// FaultFeatures is the structural feature vector of one fault, embedded
// flat into its EffortRecord.
type FaultFeatures struct {
	// ConeSize is the node count of the fault net's transitive fanout —
	// the effort-ordered dispatcher's priority key.
	ConeSize int32 `json:"cone_size"`
	// ConeDepth is the number of logic levels the fanout cone spans, from
	// the fault net to its deepest reachable node.
	ConeDepth int32 `json:"cone_depth"`
	// Gates is the gate count (non-input, non-constant nodes) of the
	// fault's sub-circuit — fanin of the fanout cone, the structure the
	// formula actually encodes, so it tracks instance size (Figure 1's
	// x-axis) without encoding anything.
	Gates int32 `json:"gates"`
	// CC0/CC1/CO are the fault net's SCOAP measures (see ComputeScoap).
	CC0 int32 `json:"cc0"`
	CC1 int32 `json:"cc1"`
	CO  int32 `json:"co"`
}

// features returns every fault's features. The structural three are
// read off the fault's region head (see regionTable): its cone is the
// fault's chain followed by the head's cone, so cone_size is the chain
// length plus the head's, cone_depth runs from the fault's level to the
// head cone's deepest one, and the sub-circuit's gates are the head's.
// Called before the pre-phase so RPT-decided faults get feature vectors
// too.
func (rt *regionTable) features(faults []Fault) []FaultFeatures {
	scoap := ComputeScoap(rt.c)
	feats := make([]FaultFeatures, len(faults))
	for i, f := range faults {
		hc := rt.shape(rt.head[f.Net], true)
		feats[i] = FaultFeatures{
			ConeSize:  rt.chain[f.Net] + hc.size,
			ConeDepth: hc.maxLevel - int32(rt.c.Level(f.Net)) + 1,
			Gates:     hc.gates,
			CC0:       scoap.CC0[f.Net],
			CC1:       scoap.CC1[f.Net],
			CO:        scoap.CO[f.Net],
		}
	}
	return feats
}
