package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"castanet/internal/obs"
)

// coverFloorFile maps campaign name -> cover group -> minimum hit-bin
// ratio (0..1). The committed COVER_FLOOR.json at the repo root is the
// CI contract: make rig-smoke runs the campaigns against it.
type coverFloorFile map[string]map[string]float64

// loadCoverFloor reads and validates a floor file before the campaign
// spends any time running: a missing or unreadable file, malformed JSON,
// or a ratio outside [0, 1] is an operator error with a diagnostic that
// names the offending entry. The caller maps these to exit status 2.
func loadCoverFloor(path string) (coverFloorFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cover floor: cannot read %s: %v", path, err)
	}
	var floors coverFloorFile
	if err := json.Unmarshal(raw, &floors); err != nil {
		return nil, fmt.Errorf("cover floor: %s is not a floor file (want JSON campaign -> group -> ratio): %v", path, err)
	}
	for camp, groups := range floors {
		for name, ratio := range groups {
			if ratio < 0 || ratio > 1 {
				return nil, fmt.Errorf("cover floor: %s: campaign %q group %q ratio %v outside [0, 1]",
					path, camp, name, ratio)
			}
		}
	}
	return floors, nil
}

// floorsFor selects one campaign's floor section; a campaign with no
// section is an operator error (wrong file or wrong campaign name), also
// caught before the campaign runs.
func floorsFor(floors coverFloorFile, path, campaign string) (map[string]float64, error) {
	want, ok := floors[campaign]
	if !ok {
		names := make([]string, 0, len(floors))
		for name := range floors {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("cover floor: %s has no section for campaign %q (sections: %s)",
			path, campaign, strings.Join(names, ", "))
	}
	return want, nil
}

// checkCoverFloor verifies a campaign's merged coverage against its
// preloaded floor section. Every listed group must exist in the snapshot
// and reach its minimum ratio; a missing group or an unmet floor is a
// verification failure (exit status 1), not a flag error.
func checkCoverFloor(want map[string]float64, campaign string, snaps []obs.CoverGroupSnap) error {
	byName := make(map[string]obs.CoverGroupSnap, len(snaps))
	for _, g := range snaps {
		byName[g.Name] = g
	}
	groups := make([]string, 0, len(want))
	for name := range want {
		groups = append(groups, name)
	}
	sort.Strings(groups)
	var unmet []string
	for _, name := range groups {
		g, ok := byName[name]
		if !ok {
			unmet = append(unmet, fmt.Sprintf("%s: group not instrumented (floor %.2f)", name, want[name]))
			continue
		}
		if r := g.Ratio(); r < want[name] {
			hit, total := g.Covered()
			unmet = append(unmet, fmt.Sprintf("%s: %d/%d bins (%.1f%%) below floor %.1f%%",
				name, hit, total, 100*r, 100*want[name]))
		}
	}
	if len(unmet) > 0 {
		return fmt.Errorf("coverage floor not met for campaign %q:\n  %s",
			campaign, strings.Join(unmet, "\n  "))
	}
	return nil
}
