package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// SegmentFiles lists dir's journal segment file names in replay order: the
// base journal.log first (when present), then numbered rotation segments
// ascending. It reads the directory without opening a Log, so crash-audit
// tooling (SweepPrefixes, the recovery tests) can enumerate the surviving
// byte stream of a state dir that another process may still hold locked.
func SegmentFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type seg struct {
		n    int64
		name string
	}
	var segs []seg
	for _, e := range ents {
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, seg{n, e.Name()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].n < segs[j].n })
	names := make([]string, 0, len(segs))
	for _, s := range segs {
		names = append(names, s.name)
	}
	return names, nil
}

// A Prefix is one crash point of a state dir: the snapshot and every
// segment before Seg whole, Seg cut to Cut of its Size bytes, later ones
// gone. Sample indexes the evenly spaced cut it is, or is -1 for a cut on a
// record boundary or a byte either side of one; Boundary reports that Cut
// ends a whole record (0 included).
type Prefix struct {
	Seg       string
	Cut, Size int64
	Sample    int
	Boundary  bool
}

// SweepPrefixes is the one crash-sweep harness. For each segment of dir it
// cuts at samples evenly spaced offsets (0 and the full size included;
// size+1 samples try every byte) and at every record boundary and the byte
// either side of it, in ascending order, builds each prefix in a scratch
// directory and calls verify on it. The first error is returned, naming the
// cut.
func SweepPrefixes(dir string, samples int, verify func(caseDir string, p Prefix) error) error {
	segs, err := SegmentFiles(dir)
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp("", "journal-sweep-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	keep := map[string][]byte{} // what every prefix of the current segment holds whole
	if snap, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		keep[snapshotName] = snap
	}
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			return err
		}
		size := int64(len(data))
		bounds, end := map[int64]bool{0: true}, int64(0)
		scanRecords(bytes.NewReader(data), func(p []byte) error {
			end += headerSize + int64(len(p))
			bounds[end] = true
			return nil
		})
		cuts := map[int64]Prefix{}
		for b := range bounds {
			for c := max(b-1, 0); c <= min(b+1, size); c++ {
				cuts[c] = Prefix{Seg: seg, Cut: c, Size: size, Sample: -1, Boundary: bounds[c]}
			}
		}
		for i := max(samples, 2) - 1; i >= 0; i-- { // the lowest index names a shared cut
			c := size * int64(i) / int64(max(samples, 2)-1)
			cuts[c] = Prefix{Seg: seg, Cut: c, Size: size, Sample: i, Boundary: bounds[c]}
		}
		order := make([]int64, 0, len(cuts))
		for c := range cuts {
			order = append(order, c)
		}
		slices.Sort(order)
		for _, c := range order {
			caseDir := filepath.Join(scratch, fmt.Sprintf("%s-%d", seg, c))
			if err := os.Mkdir(caseDir, 0o755); err != nil {
				return err
			}
			keep[seg] = data[:c]
			for name, b := range keep {
				if err := os.WriteFile(filepath.Join(caseDir, name), b, 0o644); err != nil {
					return err
				}
			}
			if err := verify(caseDir, cuts[c]); err != nil {
				return fmt.Errorf("prefix %s cut to %d of %d bytes: %w", seg, c, size, err)
			}
			os.RemoveAll(caseDir)
		}
		keep[seg] = data
	}
	return nil
}
