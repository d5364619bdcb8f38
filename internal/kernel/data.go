package kernel

import (
	"fmt"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/schedule"
)

// This file is the data-aware half of the placement inner loop. With a
// data.Model bound (SetData), file-carrying edges stop paying their raw
// Data weight: their cost is derived from file size ÷ effective bandwidth,
// the transfers occupy capacity channels (uplinks, downlinks, shared
// links) that serialize in the slot search exactly like compute on a busy
// resource, an input already materialized on a resource — produced there,
// pre-staged, delivered by an earlier plan, or staged earlier in the same
// pass — costs nothing (file reuse), and per-resource storage bounds the
// data a pass stages onto one host (as a soft constraint: when every
// resource overflows, the least-bad placement proceeds).
//
// Approximation, by design: the input transfers of one job probe their
// channel slots independently, so one job's staging batch may overlap
// itself on a shared channel (the committed spans are merged, so later
// jobs serialize against the union). Cross-job and cross-workflow
// transfers serialize exactly.
//
// A placement is linear in the job's fan-in: each input edge resolves
// through constant-time per-file slots (State.fileAt, passFile,
// probeFile), never by searching the job's other inputs.
//
// Everything below is gated on k.dataM != nil; the classic path never
// touches it, keeping no-files schedules bit-identical.

// LinkOccupancy optionally extends Occupancy with per-channel foreign
// transfer reservations: AppendLinkBusy appends the busy intervals other
// tenants hold on the named capacity channel (data.Model channel names:
// "up:<res>", "down:<res>", "link:<name>") and returns the extended
// slice. Providers that don't implement it simply expose no link
// contention.
type LinkOccupancy interface {
	AppendLinkBusy(channel string, buf []Busy) []Busy
}

// SetData binds (or, with nil, unbinds) a data model. Must be called
// before states are created and plans computed: it invalidates the rank
// cache and re-shapes the file ledger of states created afterwards. The
// model's pool must be the pool the kernel schedules over.
func (k *Kernel) SetData(m *data.Model) {
	k.dataM = m
	k.rankOK = false
	k.empty = nil
	k.fileOfEdge = nil
	k.commOfEdge, k.chBase, k.chans = nil, nil, nil
	k.fAvail, k.fAvailEp, k.fStride, k.fEpoch = nil, nil, 0, 0
	k.probeAt, k.chFloor = nil, nil
	if m == nil {
		return
	}
	k.probeAt = make([]int, m.NumFiles())
	k.fileOfEdge = make([]int, k.g.NumEdges())
	k.commOfEdge = make([]float64, k.g.NumEdges())
	for i, e := range k.g.Edges() {
		// The rank-phase weight of an edge: the model's nominal
		// size÷bandwidth cost for a file edge, MeanComm (the raw Data
		// weight) otherwise, as in the classic mode.
		f, comm := m.Index(e.File), cost.MeanComm(e)
		if f >= 0 {
			comm = m.NominalComm(f)
		}
		k.fileOfEdge[i], k.commOfEdge[i] = f, comm
	}
	k.chBase = make([][]block, m.NumChannels())
	k.chans = make([]timeline, m.NumChannels())
	k.chFloor = make([]chanFloor, m.NumChannels())
}

// Data returns the bound data model (nil in the classic mode).
func (k *Kernel) Data() *data.Model { return k.dataM }

// commEst is the static (contention-free) transfer estimate for edge e —
// the derived file cost when a model is bound and the edge names a file,
// cost.Comm otherwise. This is the precedence rule the wire docs
// describe: declared files supersede the raw numeric edge cost.
func (k *Kernel) commEst(e dag.Edge, from, to grid.ID) float64 {
	if k.dataM != nil && e.File != "" {
		if f := k.dataM.Index(e.File); f >= 0 {
			return k.dataM.StaticComm(f, from, to)
		}
	}
	return cost.Comm(e, from, to)
}

// PredComm is commEst, the edge-cost precedence rule, for the i-th
// incoming edge of j, its file found through the dense edge index.
func (k *Kernel) PredComm(j dag.JobID, i int, from, to grid.ID) float64 {
	if k.dataM != nil {
		if f := k.fileOfEdge[k.g.PredBase(j)+i]; f >= 0 {
			return k.dataM.StaticComm(f, from, to)
		}
	}
	return cost.Comm(k.g.Preds(j)[i], from, to)
}

// output returns where predecessor m's output is and from when: its
// recorded outcome if finished, else its candidate placement or pin.
func (k *Kernel) output(st *State, m dag.JobID) (grid.ID, float64) {
	if r := st.finRes[m]; r != grid.NoResource {
		return r, st.finAFT[m]
	}
	return k.placed[m].Resource, k.placed[m].Finish
}

// probeXfer is one fresh file movement a placement probe determined a
// candidate resource would need; commitInputs materialises those of the
// chosen resource.
type probeXfer struct {
	file, input   int // input: the edge's index in the job's Preds
	src           grid.ID
	start, finish float64
}

// prepChannels rebuilds, once per Reschedule, the per-channel base rows
// from the foreign transfer reservations of the occupancy provider (when it
// implements LinkOccupancy). Mirrors the resource-row prep: sorted here,
// coalesced as each pass resets its timeline from them.
func (k *Kernel) prepChannels() {
	lo, _ := k.occ.(LinkOccupancy)
	for c := range k.chBase {
		row := k.chBase[c][:0]
		if lo != nil {
			k.busyBuf = lo.AppendLinkBusy(k.dataM.ChannelName(c), k.busyBuf[:0])
			for _, b := range k.busyBuf {
				if b.Finish <= b.Start {
					continue
				}
				row = append(row, block{b.Start, b.Finish})
			}
		}
		sortBlocks(row)
		k.chBase[c] = row
	}
}

// beginDataPass resets the pass-local data state of placeCandidate: the
// working channel timelines, the staged-file availability epoch, the
// per-resource storage tally, and the transfer list under construction.
func (k *Kernel) beginDataPass(rs []grid.Resource) {
	for c := range k.chans {
		k.chans[c].reset(k.chBase[c])
	}
	maxID := grid.ID(-1)
	for _, r := range rs {
		if r.ID > maxID {
			maxID = r.ID
		}
	}
	if need := int(maxID) + 1; need > k.fStride {
		k.fStride = need
		nf := k.dataM.NumFiles()
		k.fAvail = make([]float64, nf*need)
		k.fAvailEp = make([]uint32, nf*need)
		k.storeUsed = make([]float64, need)
	}
	k.fEpoch++
	if k.fEpoch == 0 {
		for i := range k.fAvailEp {
			k.fAvailEp[i] = 0
		}
		k.fEpoch = 1
	}
	for _, r := range rs {
		k.storeUsed[r.ID] = 0
	}
	k.workXfers = k.workXfers[:0]
}

// passFile returns the availability of file f on r recorded earlier in
// the current pass.
func (k *Kernel) passFile(f int, r grid.ID) (float64, bool) {
	i := f*k.fStride + int(r)
	if k.fAvailEp[i] != k.fEpoch {
		return 0, false
	}
	return k.fAvail[i], true
}

func (k *Kernel) setPassFile(f int, r grid.ID, t float64) {
	i := f*k.fStride + int(r)
	if k.fAvailEp[i] == k.fEpoch && k.fAvail[i] <= t {
		return
	}
	k.fAvail[i], k.fAvailEp[i] = t, k.fEpoch
}

// channelSlot finds the earliest departure ≥ depart at which a transfer
// of duration d fits every channel of the src→dst path simultaneously —
// timeline.earliest over several rows at once, converged by fixed-point
// iteration (each channel can only push the candidate later; when no
// channel moves it, the interval fits all of them).
func (k *Kernel) channelSlot(src, dst grid.ID, depart, d float64, insertion bool) float64 {
	if d <= 0 {
		return depart
	}
	k.chIdxBuf = k.dataM.AppendChannels(src, dst, k.chIdxBuf[:0])
	t := depart
	for {
		moved := false
		for _, c := range k.chIdxBuf {
			if s := k.chans[c].earliest(t, d, insertion); s > t {
				t, moved = s, true
			}
		}
		if !moved {
			return t
		}
	}
}

// probeFile returns the arrival of file f as probed earlier in the
// current probeInputs call (another input edge of the same job names it),
// the per-probe sibling of passFile: probeAt[f] is where xferBuf holds f,
// if it does.
func (k *Kernel) probeFile(f int) (float64, bool) {
	if i := k.probeAt[f]; i < len(k.xferBuf) && k.xferBuf[i].file == f {
		return k.xferBuf[i].finish, true
	}
	return 0, false
}

// probeInputs computes, without mutating any timeline, the input-ready
// time of a job on candidate resource r under the data model: classic
// edges go through Eq. 1 (st.fea) unchanged; file edges resolve to the
// producer's finish (precedence floor) plus, when the file is not yet on
// r, a fresh transfer slotted through the path's capacity channels. The
// probed transfers are left in k.xferBuf for commitInputs. fits reports
// whether r's storage bound accommodates the staged bytes.
func (k *Kernel) probeInputs(st *State, preds []dag.Edge, eBase int, r grid.ID, insertion bool) (ready float64, fits bool) {
	k.xferBuf = k.xferBuf[:0]
	ready = st.Clock
	newBytes := 0.0
	for i := range preds {
		e := preds[i]
		eIdx := eBase + i
		f := k.fileOfEdge[eIdx]
		if f < 0 {
			if t := st.fea(e, eIdx, r); t > ready {
				ready = t
			}
			continue
		}
		// Producer location and availability: rank order guarantees a
		// candidate placement for an unfinished predecessor.
		src, avail := k.output(st, e.From)
		if src == grid.NoResource {
			panic(fmt.Sprintf("kernel: data probe before predecessor %d placed", e.From))
		}
		arr := avail // precedence floor: never before the producer finishes
		switch {
		case src == r || k.dataM.PreStaged(f, r):
			// Case 1/3 analogue: the bytes are already where the job runs.
		default:
			// In order: a replica a previous plan (or delivered transfer)
			// already staged to r, a transfer committed earlier in this
			// very pass, or the copy another input edge of this job already
			// probed toward r — one staged copy serves them all.
			t, ok := st.fileAt(f, r)
			if !ok {
				t, ok = k.passFile(f, r)
			}
			if !ok {
				t, ok = k.probeFile(f)
			}
			if !ok {
				depart := avail
				if depart < st.Clock {
					depart = st.Clock // Eq. 1 Case 2: a fresh transfer starts now
				}
				d := k.dataM.Duration(f, src, r)
				start := k.channelSlot(src, r, depart, d, insertion)
				t = start + d
				k.probeAt[f] = len(k.xferBuf)
				k.xferBuf = append(k.xferBuf, probeXfer{file: f, input: i, src: src, start: start, finish: t})
				newBytes += k.dataM.Size(f)
			}
			if t > arr {
				arr = t
			}
		}
		if arr > ready {
			ready = arr
		}
	}
	store := k.dataM.Store(r)
	fits = store == 0 || k.storeUsed[r]+newBytes <= store+1e-9
	return ready, fits
}

// commitInputs materialises the transfers xs that the winning probe of
// resource r found necessary: busy time added to every channel on the path
// (merged, so the gap search stays sound under the intra-job overlap
// approximation), pass-local file availability recorded for reuse,
// storage tallied, and the plan's transfer list extended.
func (k *Kernel) commitInputs(job dag.JobID, r grid.ID, xs []probeXfer) {
	for _, x := range xs {
		if x.finish > x.start {
			k.chIdxBuf = k.dataM.AppendChannels(x.src, r, k.chIdxBuf[:0])
			for _, c := range k.chIdxBuf {
				k.chans[c].add(x.start, x.finish)
			}
			k.workXfers = append(k.workXfers, schedule.Transfer{
				Job: job, Input: x.input, File: k.dataM.FileID(x.file),
				From: x.src, To: r, Start: x.start, Finish: x.finish,
			})
		}
		k.setPassFile(x.file, r, x.finish)
		k.storeUsed[r] += k.dataM.Size(x.file)
	}
}
