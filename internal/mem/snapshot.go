package mem

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshot support mirrors the paper's measurement methodology (§5.3): the
// evaluation "dumps the core image periodically when the quarantine buffer
// is full" and replays revocation sweeps over the dumps offline. A Snapshot
// is a complete, self-contained image of the tagged memory — data words, tag
// bits and page-table metadata — serialised with encoding/gob.

// snapshotPage is the wire form of one page.
type snapshotPage struct {
	VPN             uint64
	Words           [WordsPerPage]uint64
	Tags            [GranulesPerPage / 8]uint8
	CapDirty        bool
	CapStoreInhibit bool
}

// snapshotImage is the wire form of a whole memory.
type snapshotImage struct {
	Version int
	Pages   []snapshotPage
}

const snapshotVersion = 1

// WriteSnapshot serialises the memory image (pages in ascending address
// order, so identical states produce identical bytes). An untouched page is
// written with zero words.
func (m *Memory) WriteSnapshot(w io.Writer) error {
	img := snapshotImage{Version: snapshotVersion}
	for _, r := range m.regions {
		for i := range r.pages {
			p := &r.pages[i]
			sp := snapshotPage{
				VPN:             r.base/PageSize + uint64(i),
				Tags:            p.tags,
				CapDirty:        p.capDirty,
				CapStoreInhibit: p.capStoreInhibit,
			}
			if w := m.words(p); w != nil {
				sp.Words = *w
			}
			img.Pages = append(img.Pages, sp)
		}
	}
	return gob.NewEncoder(w).Encode(&img)
}

// ReadSnapshot reconstructs a memory from a serialised image. The result is
// a fresh Memory with zeroed event counters: sweeping a dump measures the
// sweep, not the run that produced it. Each page is mapped with Map, so an
// image with a duplicate page or one outside the 48-bit address space is
// rejected.
func ReadSnapshot(r io.Reader) (*Memory, error) {
	var img snapshotImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("mem: decoding snapshot: %w", err)
	}
	if img.Version != snapshotVersion {
		return nil, fmt.Errorf("mem: snapshot version %d, want %d", img.Version, snapshotVersion)
	}
	m := New()
	for i := range img.Pages {
		sp := &img.Pages[i]
		base := sp.VPN * PageSize
		if base/PageSize != sp.VPN {
			return nil, faultf(ErrRange, "mem: snapshot page number %#x", sp.VPN)
		}
		if err := m.Map(base, PageSize); err != nil {
			return nil, fmt.Errorf("mem: snapshot page %#x: %w", base, err)
		}
		p, _ := m.pageFor(base)
		p.tags, p.capDirty, p.capStoreInhibit = sp.Tags, sp.CapDirty, sp.CapStoreInhibit
		if sp.Words != ([WordsPerPage]uint64{}) {
			*m.newWords(p) = sp.Words
		}
		granules, lines := p.countTags()
		p.capCount, p.capLines = uint16(granules), uint8(lines)
		if granules > 0 {
			m.capPages++
			m.capLines += lines
		}
	}
	return m, nil
}
