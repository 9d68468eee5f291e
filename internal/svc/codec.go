// Package svc is the collective-as-a-service layer: a multi-tenant job
// runtime that multiplexes many concurrent collective jobs (distinct
// roots, tenants and payload streams) over one shared mpx.Machine mesh.
//
// The foundation is a structured 60-bit tag space. Every message tag on
// the machine decomposes as (tenant, job, seq, sub):
//
//		bit 59 ........ 52 51 ........ 40 39 ............. 16 15 ............. 0
//		[    tenant: 8   ][    job: 12   ][      seq: 24     ][     sub: 16     ]
//
//	  - sub is the intra-collective stream: tree index, exchange dimension,
//	    or root rank+1 for the all-node collectives.
//	  - seq is the collective sequence number a communicator stamps on each
//	    call (the MPI lockstep counter).
//	  - job distinguishes concurrent jobs of one tenant; job 0 is reserved
//	    for standalone (non-runtime) communicators.
//	  - tenant distinguishes tenants; tenant 0, job 0 is the legacy tag
//	    space used by comm.Run et al., which keeps old and new traffic
//	    bit-compatible on the wire.
//
// 60 bits require a 64-bit int; the wire layer varint-encodes tags, so
// high bits cost bytes only when used. The dispatcher routes on the top
// 20 bits — JobKeyOf — without decoding the rest.
package svc

import "fmt"

// Field widths and shifts of the tag layout; shifts compose the widths
// LSB-first.
const (
	subBits    = 16
	seqBits    = 24
	jobBits    = 12
	tenantBits = 8

	seqShift    = subBits
	jobShift    = subBits + seqBits
	tenantShift = subBits + seqBits + jobBits

	// maxSub..MaxTenant are the inclusive upper bounds of each field.
	maxSub    = 1<<subBits - 1
	maxSeq    = 1<<seqBits - 1
	MaxJob    = 1<<jobBits - 1
	MaxTenant = 1<<tenantBits - 1
)

// Tag is the decoded form of a structured message tag.
type Tag struct {
	Tenant int // 0..MaxTenant
	Job    int // 0..MaxJob; 0 = standalone communicator
	Seq    int // 0..maxSeq collective sequence
	Sub    int // 0..maxSub intra-collective stream
}

// Encode packs the tag, validating every field's range.
func (t Tag) Encode() (int, error) {
	if t.Tenant < 0 || t.Tenant > MaxTenant {
		return 0, fmt.Errorf("svc: tenant %d out of range [0,%d]", t.Tenant, MaxTenant)
	}
	if t.Job < 0 || t.Job > MaxJob {
		return 0, fmt.Errorf("svc: job %d out of range [0,%d]", t.Job, MaxJob)
	}
	if t.Seq < 0 || t.Seq > maxSeq {
		return 0, fmt.Errorf("svc: seq %d out of range [0,%d]", t.Seq, maxSeq)
	}
	if t.Sub < 0 || t.Sub > maxSub {
		return 0, fmt.Errorf("svc: sub %d out of range [0,%d]", t.Sub, maxSub)
	}
	return t.Tenant<<tenantShift | t.Job<<jobShift | t.Seq<<seqShift | t.Sub, nil
}

// MustEncode is Encode for statically valid tags; it panics on a range
// violation (a programming error, not an input error).
func (t Tag) MustEncode() int {
	raw, err := t.Encode()
	if err != nil {
		panic(err)
	}
	return raw
}

// JobKey compacts (tenant, job) into one comparable int — the key the
// dispatcher and the per-job stats map route on.
func JobKey(tenant, job int) int { return tenant<<jobBits | job }

// JobKeyOf extracts the job key from a raw tag without a full decode.
func JobKeyOf(raw int) int { return raw >> jobShift }

// KeyTenant and KeyJob split a JobKey back into its halves.
func KeyTenant(key int) int { return key >> jobBits }
func KeyJob(key int) int    { return key & MaxJob }

// StreamTag packs the per-collective (seq, sub) half of a tag — the hot
// path, called on every send and receive, so it panics on range
// violations instead of returning an error. A communicator that runs
// maxSeq collectives has a stuck counter, not an input problem.
func StreamTag(seq, sub int) int {
	if uint(seq) > maxSeq || uint(sub) > maxSub {
		panic(fmt.Sprintf("svc: stream tag (seq=%d, sub=%d) out of range", seq, sub))
	}
	return seq<<seqShift | sub
}

// StreamSeq extracts the collective sequence from a raw tag.
func StreamSeq(raw int) int { return raw >> seqShift & maxSeq }

// StreamSub extracts the intra-collective stream from a raw tag.
func StreamSub(raw int) int { return raw & maxSub }
