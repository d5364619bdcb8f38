package occupancy

import (
	"sort"

	"aheft/internal/kernel"
)

// Transfer is one planned file staging's claim on a named capacity
// channel (a resource uplink/downlink or a shared link; the channel names
// are data.Model's: "up:<res>", "down:<res>", "link:<name>"). A staging
// that crosses several channels publishes one Transfer per channel.
// Transfer reservations live beside the compute reservations under the
// same ownership discipline: replaced wholesale on plan adoption,
// released per job as execution passes them, and dropped atomically with
// the owner's compute claims on every terminal path — a leaked transfer
// reservation would silently narrow a link for every other tenant
// forever, so TransferTotal exists for the leak tests and metrics to
// prove the ledger drains to zero.
type Transfer struct {
	Job     int
	File    string
	Channel string
	Start   float64
	Finish  float64
}

// tentry is a stored transfer reservation tagged with its owner.
type tentry struct {
	owner         string
	job           int
	file          string
	start, finish float64
}

// ensureCh lazily allocates the transfer maps; pre-data ledgers never pay
// for them.
func (l *Ledger) ensureCh() {
	if l.byCh == nil {
		l.byCh = make(map[string][]tentry)
		l.towners = make(map[string]int)
	}
}

// insertT adds e to its channel row keeping (start, owner, job, file)
// order.
func (l *Ledger) insertT(ch string, e tentry) {
	l.ensureCh()
	row := l.byCh[ch]
	i := sort.Search(len(row), func(i int) bool {
		switch {
		case row[i].start != e.start:
			return row[i].start > e.start
		case row[i].owner != e.owner:
			return row[i].owner > e.owner
		case row[i].job != e.job:
			return row[i].job > e.job
		default:
			return row[i].file > e.file
		}
	})
	row = append(row, tentry{})
	copy(row[i+1:], row[i:])
	row[i] = e
	l.byCh[ch] = row
	l.towners[e.owner]++
}

// removeTWhere filters every channel row in place, dropping owner's
// transfer entries for which match returns true (nil match drops all).
func (l *Ledger) removeTWhere(owner string, match func(e tentry) bool) int {
	removed := 0
	for ch, row := range l.byCh {
		w := 0
		for _, e := range row {
			if e.owner == owner && (match == nil || match(e)) {
				removed++
				continue
			}
			row[w] = e
			w++
		}
		if w == 0 {
			delete(l.byCh, ch)
		} else {
			l.byCh[ch] = row[:w]
		}
	}
	if removed > 0 {
		if n := l.towners[owner] - removed; n > 0 {
			l.towners[owner] = n
		} else {
			delete(l.towners, owner)
		}
	}
	return removed
}

// SetOwnerTransfers replaces every transfer reservation of owner with ts
// — the whole-plan publish mirroring SetOwner. The per-tenant share cap
// deliberately does not apply: transfer claims always back a published
// (already capped) compute plan.
func (l *Ledger) SetOwnerTransfers(owner string, ts []Transfer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.removeTWhere(owner, nil)
	for _, t := range ts {
		l.insertT(t.Channel, tentry{owner: owner, job: t.Job, file: t.File, start: t.Start, finish: t.Finish})
	}
}

// ReleaseJobTransfers drops owner's transfer reservations staged for job
// (its inputs are materialized once it starts) and returns how many were
// removed.
func (l *Ledger) ReleaseJobTransfers(owner string, job int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.removeTWhere(owner, func(e tentry) bool { return e.job == job })
}

// TransferTotal returns the ledger-wide transfer-reservation count.
func (l *Ledger) TransferTotal() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.towners {
		n += c
	}
	return n
}

// Channels returns a snapshot of per-channel transfer-reservation counts
// in channel-name order — the GridStatus link-occupancy view.
func (l *Ledger) Channels() (names []string, counts []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for ch := range l.byCh {
		names = append(names, ch)
	}
	sort.Strings(names)
	counts = make([]int, len(names))
	for i, ch := range names {
		counts[i] = len(l.byCh[ch])
	}
	return names, counts
}

// appendLinkBusy appends every interval on channel ch not owned by
// exclude to buf.
func (l *Ledger) appendLinkBusy(ch, exclude string, buf []kernel.Busy) []kernel.Busy {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.byCh[ch] {
		if e.owner == exclude {
			continue
		}
		buf = append(buf, kernel.Busy{Start: e.start, Finish: e.finish})
	}
	return buf
}

// AppendLinkBusy implements kernel.LinkOccupancy: the foreign transfer
// reservations on the named channel.
func (v *View) AppendLinkBusy(channel string, buf []kernel.Busy) []kernel.Busy {
	return v.l.appendLinkBusy(channel, v.owner, buf)
}

// PublishTransfers replaces the owner's whole transfer-reservation set.
func (v *View) PublishTransfers(ts []Transfer) { v.l.SetOwnerTransfers(v.owner, ts) }

// ReleaseJobTransfers drops the owner's transfer reservations for one job.
func (v *View) ReleaseJobTransfers(job int) int { return v.l.ReleaseJobTransfers(v.owner, job) }
