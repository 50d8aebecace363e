// Package codec is an analysistest stub of bitdew/internal/codec: the two
// entry points, by name and shape.
package codec

func Marshal(v any) ([]byte, error) { return nil, nil }

func Unmarshal(raw []byte, v any) error { return nil }
