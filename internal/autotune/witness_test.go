package autotune

// The search's witness.
//
// testdata/golden/search_witness.json records, for the four programs of the
// map-search benchmark at S ∈ {2, 4, 8} and with one and two workers, the
// name, length and SHA-256 of json.Marshal of the report Search returns. It
// was written by the search that lowered, walked, replayed and measured every
// candidate on its own, before twins began to share that work; the file is the
// reference, and TestSearchWitness holds the search to it byte for byte.
//
// A failing TestSearchWitness writes what it observed to a file it names;
// there is no -update flag. Only a change that means to alter the reports
// copies that file over the golden, and says why.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/golden"
	"procdecomp/internal/machine"
)

const searchWitnessPath = "../../testdata/golden/search_witness.json"

// searchRecord is one search's report as the file stores it.
type searchRecord struct {
	Name   string `json:"name"`
	Error  string `json:"error,omitempty"`
	Len    int    `json:"len"`
	SHA256 string `json:"sha256,omitempty"`
}

// witnessWorkloads are map-search's four programs: GS at N=16 and N=24,
// reversed GS and Jacobi at N=24.
func witnessWorkloads() []*Workload {
	n24 := map[string]int64{"N": 24}
	return []*Workload{
		gsWorkload(16),
		gsWorkload(24),
		{Name: "gs-reversed", Source: bench.GSReversedSource, Entry: "gs_iteration", Dist: "Column", Defines: n24},
		{Name: "jacobi", Source: jacobiSource, Entry: "jacobi", Dist: "D", Defines: n24},
	}
}

// searchRecords runs every search of the witness, in file order.
func searchRecords() []searchRecord {
	var recs []searchRecord
	for _, s := range []int{2, 4, 8} {
		for _, workers := range []int{1, 2} {
			for _, w := range witnessWorkloads() {
				name := fmt.Sprintf("%s/N=%d/S=%d/workers=%d", w.Name, w.Defines["N"], s, workers)
				rep, err := Search(w, machine.DefaultConfig(s), Options{Workers: workers})
				if err != nil {
					recs = append(recs, searchRecord{Name: name, Error: err.Error()})
					continue
				}
				b, err := json.Marshal(rep)
				if err != nil {
					recs = append(recs, searchRecord{Name: name, Error: err.Error()})
					continue
				}
				sum := sha256.Sum256(b)
				recs = append(recs, searchRecord{Name: name, Len: len(b), SHA256: hex.EncodeToString(sum[:])})
			}
		}
	}
	return recs
}

// encodeRecords writes one record a line, so a diff of two files names
// searches.
func encodeRecords(recs []searchRecord) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			panic(err)
		}
		b.Write(line)
		if i < len(recs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestSearchWitness holds every report to the file: each record, none
// missing or left over, byte for byte.
func TestSearchWitness(t *testing.T) {
	golden.Hold(t, searchWitnessPath, encodeRecords(searchRecords()),
		"Only a change that means to alter the reports copies it over the golden, and says why.")
}
