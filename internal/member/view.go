// Package member implements epoch-versioned membership for a live
// hypercube mesh: nodes join (filling a dead rank's hole or growing the
// cube by a dimension), leave via graceful drain, or crash and are
// detected by the transport's link supervisors. Views are agreed by
// flooding view-change announcements over surviving links — the view is
// a per-rank version vector whose merge is a commutative, monotone
// pointwise maximum, so the epidemic flood converges on every connected
// live component without consensus rounds.
package member

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cube"
	"repro/internal/fault"
)

// Status is a rank's membership state. The numeric order is the merge
// tiebreak precedence at equal version: Alive > Drained > Dead. The only
// way two nodes independently bump the same rank to the same version is
// a race between a crash detector (Dead), the rank's own drain
// announcement (Drained) and a join handler (Alive); in each conflict
// the higher status is the correct outcome — a join racing a stale
// crash report means the hole was refilled, and a drain racing a crash
// report records the known intent.
type Status uint8

const (
	Dead Status = iota
	Drained
	Alive
)

func (s Status) String() string {
	switch s {
	case Dead:
		return "dead"
	case Drained:
		return "drained"
	case Alive:
		return "alive"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// maxDim bounds a decoded or grown view, protecting against a corrupt
// dim byte asking for 2^255 ranks.
const maxDim = 20

// View is the membership state of a mesh: per rank, a version counter
// and a status. Every membership event bumps exactly one rank's version,
// and Merge takes the pointwise lexicographic maximum of (version,
// status), so views form a join-semilattice: merge is commutative,
// associative and idempotent, and any gossip order converges.
type View struct {
	Dim  int
	Ver  []uint32
	Stat []Status
}

// bootstrap returns the launch view of a d-cube: every rank Alive at
// version 1. Epoch 0 is reserved for the empty (joiner) view, so any
// bootstrapped view compares above it.
func bootstrap(dim int) View {
	v := empty(dim)
	for i := range v.Ver {
		v.Ver[i] = 1
		v.Stat[i] = Alive
	}
	return v
}

// empty returns the zero view of a d-cube — all ranks Dead at version 0.
// A joiner bootstraps from it and adopts the mesh's real view by merge.
func empty(dim int) View {
	n := 1 << uint(dim)
	return View{Dim: dim, Ver: make([]uint32, n), Stat: make([]Status, n)}
}

// Epoch is the view's scalar version: sum over ranks of 3*version +
// status precedence. Merge takes the pointwise lexicographic max of
// (version, status) and status < 3, so every view change — including a
// status flip at an unchanged version — strictly increases the epoch,
// and merging never decreases it.
func (v View) Epoch() uint64 {
	var e uint64
	for i, ver := range v.Ver {
		e += 3*uint64(ver) + uint64(v.Stat[i])
	}
	return e
}

// Size returns the number of ranks (2^Dim).
func (v View) Size() int { return 1 << uint(v.Dim) }

// Alive reports whether rank r is a live member.
func (v View) Alive(r cube.NodeID) bool {
	return int(r) < len(v.Stat) && v.Stat[r] == Alive
}

// Live returns the view's liveness bitmask for tree repair.
func (v View) Live() fault.Liveness {
	l := fault.AllAlive(v.Dim)
	for i := range v.Stat {
		if v.Stat[i] != Alive {
			l.Clear(cube.NodeID(i))
		}
	}
	return l
}

// LowestLive returns the lowest live rank — the deterministic root
// choice every member derives independently from an agreed view.
func (v View) LowestLive() (cube.NodeID, bool) {
	for i := range v.Stat {
		if v.Stat[i] == Alive {
			return cube.NodeID(i), true
		}
	}
	return 0, false
}

// Clone returns an independent copy.
func (v View) Clone() View {
	c := View{Dim: v.Dim, Ver: make([]uint32, len(v.Ver)), Stat: make([]Status, len(v.Stat))}
	copy(c.Ver, v.Ver)
	copy(c.Stat, v.Stat)
	return c
}

// Grow extends the view by one dimension in place: the new upper-half
// ranks start Dead at version 0, i.e. as holes a joiner can fill. Grow
// alone never changes the epoch — the join that motivated it bumps the
// new rank before the view is announced.
func (v *View) Grow() error {
	if v.Dim+1 > maxDim {
		return fmt.Errorf("member: cannot grow view past dim %d", maxDim)
	}
	v.Dim++
	n := 1 << uint(v.Dim)
	ver := make([]uint32, n)
	stat := make([]Status, n)
	copy(ver, v.Ver)
	copy(stat, v.Stat)
	v.Ver, v.Stat = ver, stat
	return nil
}

// Merge folds o into v, taking per rank the lexicographically larger
// (version, status) pair, growing v if o spans more dimensions. It
// reports whether v changed.
func (v *View) Merge(o View) (bool, error) {
	changed := false
	for v.Dim < o.Dim {
		if err := v.Grow(); err != nil {
			return changed, err
		}
		changed = true
	}
	for i := range o.Ver {
		if o.Ver[i] > v.Ver[i] || (o.Ver[i] == v.Ver[i] && o.Stat[i] > v.Stat[i]) {
			v.Ver[i] = o.Ver[i]
			v.Stat[i] = o.Stat[i]
			changed = true
		}
	}
	return changed, nil
}

// Bump records a membership event: rank r moves to status s at the next
// version. The bump strictly increases the epoch, so every event forces
// a new epoch even against concurrent merges.
func (v *View) Bump(r cube.NodeID, s Status) {
	v.Ver[r]++
	v.Stat[r] = s
}

// Encode serializes the view for a KindView wire frame: a dim byte
// followed by one uvarint per rank packing version<<2 | status.
func (v View) Encode() []byte {
	buf := make([]byte, 0, 1+2*len(v.Ver))
	buf = append(buf, byte(v.Dim))
	for i := range v.Ver {
		buf = binary.AppendUvarint(buf, uint64(v.Ver[i])<<2|uint64(v.Stat[i]))
	}
	return buf
}

// decodeView inverts Encode, validating dimension and status ranges.
func decodeView(buf []byte) (View, error) {
	if len(buf) < 1 {
		return View{}, fmt.Errorf("member: empty view encoding")
	}
	dim := int(buf[0])
	if dim > maxDim {
		return View{}, fmt.Errorf("member: view dim %d exceeds limit %d", dim, maxDim)
	}
	v := empty(dim)
	rest := buf[1:]
	for i := 0; i < v.Size(); i++ {
		u, k := binary.Uvarint(rest)
		if k <= 0 {
			return View{}, fmt.Errorf("member: truncated view encoding at rank %d", i)
		}
		rest = rest[k:]
		if u>>2 > uint64(^uint32(0)) {
			return View{}, fmt.Errorf("member: rank %d version overflow", i)
		}
		st := Status(u & 3)
		if st > Alive {
			return View{}, fmt.Errorf("member: rank %d has invalid status %d", i, st)
		}
		v.Ver[i] = uint32(u >> 2)
		v.Stat[i] = st
	}
	if len(rest) != 0 {
		return View{}, fmt.Errorf("member: %d trailing bytes after view", len(rest))
	}
	return v, nil
}

// String renders the view compactly for logs: epoch, dim, and each
// non-default rank as rank:status@version.
func (v View) String() string {
	s := fmt.Sprintf("view{e=%d d=%d", v.Epoch(), v.Dim)
	for i := range v.Stat {
		if v.Ver[i] == 0 && v.Stat[i] == Dead {
			continue
		}
		s += fmt.Sprintf(" %d:%s@%d", i, v.Stat[i], v.Ver[i])
	}
	return s + "}"
}
