package main

// Expected outputs, in plain Go. This file imports nothing from the
// runtime: each function recomputes a scenario's checksum from (seed,
// size) with slices and integers only, so the value a reply is checked
// against never comes from the system under test. oracle_test.go proves
// the functions equal every runtime mode.

const (
	fnvPrime = 1099511628211

	oracleStreamWindow = 8 // load.Params default: ring slots per partition
	abortSlots         = 16
	abortEvery         = 4 // one request in abortEvery aborts its first attempt
)

// hash64 is the suite's input generator (splitmix64 finaliser), restated
// here so the oracle does not call into the runtime's copy.
func hash64(i uint64) uint64 {
	x := i + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// oracleKV: 16 buckets, size/16 cells each, chains reversed back into
// insertion order before the scan.
func oracleKV(seed uint64, size int) uint64 {
	const slots = 16
	n := size / slots
	var sum uint64
	for b := 0; b < slots; b++ {
		for i := 0; i < n; i++ {
			key := hash64(seed + uint64(b*n+i))
			sum = sum*31 + key + (key ^ seed)
		}
	}
	return sum
}

// oracleBFS: 8 visit lists, each scanned newest record first.
func oracleBFS(seed uint64, size int) uint64 {
	const nb = 8
	nv := size / nb
	var sum uint64
	for b := 0; b < nb; b++ {
		for v := nv - 1; v >= 0; v-- {
			sum = sum*fnvPrime + hash64(seed^uint64(b)<<32^uint64(v))
		}
	}
	return sum
}

// oracleHist: 64 wrapping bucket sums over size hashed samples.
func oracleHist(seed uint64, size int) uint64 {
	var hist [64]uint64
	for i := 0; i < size; i++ {
		v := hash64(seed + uint64(i))
		hist[v%64] += v
	}
	var sum uint64
	for _, h := range hist {
		sum = sum*31 + h
	}
	return sum
}

// oracleFan: a directory of size/4 records (at least 8), record j in slot j.
func oracleFan(seed uint64, size int) uint64 {
	slots := size / 4
	if slots < 8 {
		slots = 8
	}
	var sum uint64
	for j := 0; j < slots; j++ {
		sum = sum*fnvPrime + hash64(seed^uint64(j)<<24)
	}
	return sum
}

// oracleStream: 4 partitions, each a ring of window slots; every step
// overwrites one slot with a 3-record batch (newest record first) and
// folds the whole live window.
func oracleStream(seed uint64, size int) uint64 {
	const parts, recs, window = 4, 3, oracleStreamWindow
	steps := size / (parts * 4)
	if steps < 2*window {
		steps = 2 * window
	}
	var sum uint64
	for p := 0; p < parts; p++ {
		var ring [window][]uint64
		var acc uint64
		for step := 0; step < steps; step++ {
			batch := make([]uint64, recs)
			for j := 0; j < recs; j++ {
				batch[recs-1-j] = hash64(seed ^ uint64(p)<<40 ^ uint64(step)<<8 ^ uint64(j))
			}
			ring[step%window] = batch
			for _, slot := range ring {
				for _, w := range slot {
					acc = acc*31 + w
				}
			}
		}
		sum = sum*fnvPrime + acc
	}
	return sum
}

// oracleAbort: size intents hashed into abortSlots chains; the committed
// fold walks each chain newest intent first.
func oracleAbort(seed uint64, size int) uint64 {
	var chains [abortSlots][]uint64
	for i := 0; i < size; i++ {
		key := hash64(seed + uint64(i))
		chains[key%abortSlots] = append(chains[key%abortSlots], key)
	}
	var sum uint64
	for _, chain := range chains {
		for i := len(chain) - 1; i >= 0; i-- {
			sum = sum*31 + chain[i] + (chain[i] ^ seed)
		}
	}
	return sum
}

// abortsFirstAttempt says whether the abort request with this seed rolls
// its first attempt back. The predicted abort count of a run is the number
// of abort requests for which this holds.
func abortsFirstAttempt(seed uint64) bool { return hash64(seed)%abortEvery == 0 }

// oracles maps a scenario name to its expected-checksum function.
var oracles = map[string]func(seed uint64, size int) uint64{
	"kv":     oracleKV,
	"bfs":    oracleBFS,
	"hist":   oracleHist,
	"fan":    oracleFan,
	"stream": oracleStream,
	"abort":  oracleAbort,
}
