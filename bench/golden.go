package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
)

// goldenJSON holds the SHA-256 digests of the deterministic outputs of the
// figures and sweep-traffic workloads at full size, for the seeds 0xc0ffee
// and the held-out 0x5eed: workload → seed → output name → digest.
//
//go:embed golden/digests.json
var goldenJSON []byte

var goldens = func() map[string]map[string]map[string]string {
	var g map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: embedded golden/digests.json: %v", err))
	}
	return g
}()

// goldenFor returns the golden digests for a workload at cfg's seed, if
// any were committed. Goldens exist only for the full-size inputs.
func goldenFor(workload string, cfg config) (map[string]string, bool) {
	if cfg.size != sizeFull {
		return nil, false
	}
	g, ok := goldens[workload][fmt.Sprintf("%#x", cfg.seed)]
	return g, ok
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
