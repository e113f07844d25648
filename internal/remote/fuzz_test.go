package remote

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bench"
)

// FuzzScanRows throws arbitrary peer bytes at the client's NDJSON row
// parser as a plain ack-less stream, the form a peer predating the
// ?ack=1 variant writes. scanAckRows is the client's one row parser, so
// this fuzzes it with the result-row handler doing the deciding.
// Invariants: never panic, never error on blank input, stop cleanly
// when the row handler is satisfied, and account for every non-blank
// line as a row, an ack, or a scan error.
// Seed corpus: f.Add cases below plus testdata/fuzz/FuzzScanRows.
func FuzzScanRows(f *testing.F) {
	f.Add([]byte(`{"name":"a","ok":true,"elapsed_ms":1.5,"worker":3}` + "\n"))
	f.Add([]byte("{\"name\":\"a\",\"ok\":true}\n\n{\"name\":\"b\",\"ok\":false,\"error\":\"boom\",\"error_kind\":\"timeout\"}\n"))
	f.Add([]byte(`{"name": nonsense`))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{"name":"dup"}` + "\n" + `{"name":"dup"}` + "\n"))
	f.Add([]byte(`{"name":"a","metrics":{"checksum":-1},"implementations":[{"tech":"cntfet32"}]}`))
	f.Add(bytes.Repeat([]byte("x"), 70<<10))                // one over-long unterminated token
	f.Add([]byte(strings.Repeat("{\"name\":\"r\"}\n", 64))) // many rows

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, acks := 0, 0
		err := scanAckRows(bytes.NewReader(data),
			func(bench.JobReport) bool { rows++; return true },
			func(SuiteAck) bool { acks++; return true })
		if err == nil && rows == 0 && acks == 0 && len(bytes.TrimSpace(data)) > 0 {
			// Every non-blank line must either decode or stop the scan
			// with an error; swallowing peer bytes silently would let a
			// dying peer's suite "succeed" short.
			t.Fatalf("input %.80q produced neither rows nor an error", data)
		}
		if err != nil && len(bytes.TrimSpace(data)) == 0 {
			t.Fatalf("blank input errored: %v", err)
		}

		// The early-stop path must never error: the first row decided.
		stopped := 0
		if stopErr := scanAckRows(bytes.NewReader(data),
			func(bench.JobReport) bool { stopped++; return false },
			func(SuiteAck) bool { return true }); stopped > 0 && stopErr != nil {
			t.Fatalf("satisfied scan still errored: %v", stopErr)
		}
		if stopped > 1 {
			t.Fatalf("scan continued after the handler was satisfied (%d rows)", stopped)
		}
	})
}

// FuzzScanCacheRows throws arbitrary peer bytes at the /v1/cache/lookup
// reply parser — the surface a malicious or dying cache peer writes to,
// where a mis-parsed line could replay the wrong cached value under a
// caller's key. Invariants: never panic, never error on blank input,
// classify every non-blank line as exactly one of cache row / scan
// error, and stop cleanly when the handler is satisfied. Seed corpus:
// f.Add cases below plus testdata/fuzz/FuzzScanCacheRows.
func FuzzScanCacheRows(f *testing.F) {
	f.Add([]byte(`{"key":"ab12","found":true,"value":{"ok":true,"worker":-1}}` + "\n"))
	f.Add([]byte("{\"key\":\"a\",\"found\":false}\n\n{\"key\":\"b\",\"found\":true,\"value\":7}\n"))
	f.Add([]byte(`{"key":"a","found":true}`))            // found without a value
	f.Add([]byte(`{"key":"","found":true,"value":{}}`))  // empty key
	f.Add([]byte(`{"key":5}`))                           // wrong key type
	f.Add([]byte(`{"key":"a","value":"not an object"}`)) // raw value kinds pass through
	f.Add([]byte("{\"key\": nonsense"))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\n  \n\n"))
	f.Add([]byte(strings.Repeat("{\"key\":\"r\",\"found\":true,\"value\":0}\n", 64)))
	f.Add(bytes.Repeat([]byte("z"), 70<<10)) // one over-long unterminated token

	f.Fuzz(func(t *testing.T, data []byte) {
		rows := 0
		err := scanCacheRows(bytes.NewReader(data), func(r CacheRow) bool {
			rows++
			// A reported value must be valid JSON or absent: anything
			// else means the parser handed through bytes Unmarshal
			// would have rejected.
			if len(r.Value) > 0 && !json.Valid(r.Value) {
				t.Fatalf("row carried invalid JSON value %.80q", r.Value)
			}
			return true
		})
		if err == nil && rows == 0 && len(bytes.TrimSpace(data)) > 0 {
			t.Fatalf("input %.80q produced neither rows nor an error", data)
		}
		if err != nil && len(bytes.TrimSpace(data)) == 0 {
			t.Fatalf("blank input errored: %v", err)
		}

		// The early-stop path must never error: the first row decided.
		stopped := 0
		if stopErr := scanCacheRows(bytes.NewReader(data), func(CacheRow) bool {
			stopped++
			return false
		}); stopped > 0 && stopErr != nil {
			t.Fatalf("satisfied scan still errored: %v", stopErr)
		}
		if stopped > 1 {
			t.Fatalf("scan continued after the handler was satisfied (%d rows)", stopped)
		}
	})
}

// FuzzScanAckRows throws arbitrary peer bytes at the acknowledged
// stream variant's parser — the surface a malicious or dying peer
// writes to during chunked dispatch, where a mis-parsed line could
// resolve the wrong job or fake a clean chunk end. Invariants: never
// panic, never error on blank input, classify every non-blank line as
// exactly one of ack row / result row / scan error, and stop cleanly
// when a handler is satisfied. Seed corpus: f.Add cases below plus
// testdata/fuzz/FuzzScanAckRows.
func FuzzScanAckRows(f *testing.F) {
	f.Add([]byte("{\"ack\":\"start\",\"jobs\":2}\n{\"name\":\"a\",\"ok\":true}\n{\"name\":\"b\",\"ok\":true}\n{\"ack\":\"end\",\"rows\":2}\n"))
	f.Add([]byte(`{"ack":"start","jobs":3}` + "\n" + `{"name":"a","ok":true}`)) // severed before the end ack
	f.Add([]byte(`{"ack":"end","rows":0}`))
	f.Add([]byte(`{"ack":"flush"}` + "\n")) // unknown ack kinds must pass through, not error
	f.Add([]byte(`{"ack":5}`))              // wrong ack type
	f.Add([]byte(`{"ack":""}` + "\n"))      // empty ack is a result row, not an ack
	f.Add([]byte(`{"name":"a","ack":"end"}`))
	f.Add([]byte("{\"name\": nonsense"))
	f.Add([]byte("\n  \n\n"))
	f.Add([]byte(strings.Repeat("{\"ack\":\"start\"}\n{\"name\":\"r\"}\n", 32)))
	f.Add(bytes.Repeat([]byte("y"), 70<<10)) // one over-long unterminated token

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, acks := 0, 0
		err := scanAckRows(bytes.NewReader(data),
			func(bench.JobReport) bool { rows++; return true },
			func(a SuiteAck) bool {
				if a.Ack == "" {
					t.Fatal("ack handler called with an empty ack kind")
				}
				acks++
				return true
			})
		if err == nil && rows == 0 && acks == 0 && len(bytes.TrimSpace(data)) > 0 {
			t.Fatalf("input %.80q produced neither rows, acks, nor an error", data)
		}
		if err != nil && len(bytes.TrimSpace(data)) == 0 {
			t.Fatalf("blank input errored: %v", err)
		}

		// Either handler returning false must stop the scan cleanly.
		stopped := 0
		if stopErr := scanAckRows(bytes.NewReader(data),
			func(bench.JobReport) bool { stopped++; return false },
			func(SuiteAck) bool { stopped++; return false }); stopped > 0 && stopErr != nil {
			t.Fatalf("satisfied scan still errored: %v", stopErr)
		}
		if stopped > 1 {
			t.Fatalf("scan continued after a handler was satisfied (%d lines)", stopped)
		}
	})
}
