package harness

import (
	"bytes"
	"testing"
)

// FuzzDecodeJSONL feeds arbitrary bytes to the JSONL record decoder
// through the three line-oriented records. No input may panic. An input
// that decodes must re-encode, and the encoding must decode to an equal
// record: one that encodes to the same bytes. (Bytes, not reflect.DeepEqual:
// an empty omitempty list such as "by_class":[] decodes as an empty slice
// and comes back as nil, which is the same record.)
//
// The seed corpus (testdata/fuzz/FuzzDecodeJSONL) holds an empty input, a
// header alone, a blank line between rows, a truncated row and a row over
// 1 MiB, past the scanner's initial buffer.
func FuzzDecodeJSONL(f *testing.F) {
	records := []func() Record{
		func() Record { return &KVReport{} },
		func() Record { return &OpenLoopReport{} },
		func() Record { return &ElasticReport{} },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range records {
			r := rec()
			if r.Decode(data) != nil {
				continue
			}
			enc, err := r.Encode()
			if err != nil {
				t.Fatalf("%T decoded but does not encode: %v", r, err)
			}
			r2 := rec()
			if err := r2.Decode(enc); err != nil {
				t.Fatalf("%T does not decode its own encoding: %v\n%s", r, err, enc)
			}
			enc2, err := r2.Encode()
			if err != nil {
				t.Fatalf("%T re-decoded but does not encode: %v", r, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%T changed in an encode-decode round trip:\n%s\n%s", r, enc, enc2)
			}
		}
	})
}
