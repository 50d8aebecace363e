package codec

import (
	"encoding/binary"
	"hash/crc32"
)

// A log on disk — db's WAL and snapshot, the content pack's journal — is a
// run of frames: the body's length and CRC-32 (IEEE), each a little-endian
// uint32, then the body. A crash mid-append leaves a frame cut short or
// failing its CRC, and what precedes it is the log's good prefix.

// AppendFrame appends one frame to dst, its body being what body appends.
func AppendFrame(dst []byte, body func([]byte) []byte) []byte {
	start := len(dst)
	dst = body(append(dst, 0, 0, 0, 0, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-8))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+8:]))
	return dst
}

// NextFrame returns the body of the frame log starts with and the frame's
// length. The length is 0 where the good prefix ends: log does not start
// with a whole, non-empty frame whose CRC holds.
func NextFrame(log []byte) (body []byte, n int) {
	if len(log) < 8 {
		return nil, 0
	}
	m := int(binary.LittleEndian.Uint32(log))
	if m < 1 || m > len(log)-8 || crc32.ChecksumIEEE(log[8:8+m]) != binary.LittleEndian.Uint32(log[4:]) {
		return nil, 0
	}
	return log[8 : 8+m], 8 + m
}
