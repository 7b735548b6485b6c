package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// KeySchema is the cell-key content-address schema version. It is baked
// into every digest, so any change to the key's fields, normalization or
// encoding MUST bump it — old on-disk entries then simply miss (a cold
// start) instead of being misattributed to the wrong configuration. The
// digest-stability golden test pins the current scheme; if it fails you
// either revert the encoding change or bump this constant.
const KeySchema = 1

// keyWire is the canonical digest encoding of a normalized CellKey. The
// JSON field order is fixed by this struct and the Faults field is the
// fault plan's canonical JSON string (already normalized by
// fault.Plan.Canon), so equal cells — however they were spelled — encode
// to identical bytes.
type keyWire struct {
	Schema    int    `json:"schema"`
	Benchmark string `json:"benchmark"`
	Ref       bool   `json:"ref"`
	System    string `json:"system"`
	GPUs      int    `json:"gpus"`
	Batch     int    `json:"batch"`
	Precision string `json:"precision"`
	Faults    string `json:"faults"`
}

// digestOf returns the SHA-256 content address of a normalized key as
// lowercase hex. k must already be normalized; Digest is the exported,
// normalizing wrapper.
func digestOf(k CellKey) string {
	b, err := json.Marshal(keyWire{
		Schema:    KeySchema,
		Benchmark: k.Benchmark,
		Ref:       k.Ref,
		System:    k.System,
		GPUs:      k.GPUs,
		Batch:     k.Batch,
		Precision: k.Precision,
		Faults:    k.Faults,
	})
	if err != nil {
		// Marshalling a struct of strings/ints/bools cannot fail; treat it
		// as the programming error it would be.
		panic(fmt.Sprintf("sweep: cell key encoding: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Digest returns the cell's canonical content address: the SHA-256 of
// the normalized key under the current KeySchema. Spelling variants of
// one cell share a digest; any two distinct configurations get distinct
// digests. This is the name the on-disk cache tier and the front tier's
// routing ring both key on.
func (k CellKey) Digest() (string, error) {
	nk, err := k.Normalize()
	if err != nil {
		return "", err
	}
	return digestOf(nk), nil
}
