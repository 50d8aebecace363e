package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// A log on disk — db's WAL and snapshot, the content pack's journal — is a
// header, which may be empty, then a run of frames: the body's length and
// CRC-32 (IEEE), each a little-endian uint32, then the body. A crash
// mid-append leaves a frame cut short or failing its CRC, and what precedes
// it is the log's good prefix. A log grows by appends at its end and is
// replaced whole by its next generation, published with one rename.

// AppendFrame appends one frame to dst, its body being what body appends.
func AppendFrame(dst []byte, body func([]byte) []byte) []byte {
	start := len(dst)
	dst = body(append(dst, 0, 0, 0, 0, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-8))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+8:]))
	return dst
}

// Compactable is the compaction rule of every log: a store replaces its log
// by the next generation once the dead bytes outweigh the live ones and pass
// 1 MiB, below which a new generation's files cost more than they give back.
// Replay then reads about twice the live set at most, busy or idle.
func Compactable(dead, live int64) bool { return dead > live && dead >= 1<<20 }

// ReadLog hands the body of each whole frame of raw, after header, to replay
// in order, and returns the length of the good prefix. A frame cut short or
// failing its CRC ends it, and so does one replay returns false for; a log
// cut inside its header is empty. A log that does not open with header, or a
// frame replay returns an error for, was written by something else, not
// torn by a crash: ReadLog returns the error.
func ReadLog(raw []byte, header string, replay func(body []byte) (bool, error)) (good int, err error) {
	if !bytes.HasPrefix(raw, []byte(header)) {
		if bytes.HasPrefix([]byte(header), raw) {
			return 0, nil
		}
		return 0, errors.New("not a log of this build: a state directory written by an earlier build cannot be opened; start from an empty one")
	}
	for good = len(header); len(raw)-good >= 8; {
		m := int(binary.LittleEndian.Uint32(raw[good:]))
		if m < 1 || m > len(raw)-good-8 {
			break
		}
		body := raw[good+8 : good+8+m]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[good+4:]) {
			break
		}
		if ok, err := replay(body); !ok || err != nil {
			return good, err
		}
		good += 8 + m
	}
	return good, nil
}

// Log is a log file open for appending.
type Log struct {
	f    logFile
	size int64 // the good prefix: where a failed append is cut back to
	// broken latches an append that could not be cut back: the file may end
	// in a torn frame, and nothing is written after it.
	broken error
}

// logFile is what a Log needs of its file, which a test can make fail.
type logFile interface {
	io.WriteCloser
	Truncate(size int64) error
	Sync() error
}

// OpenLog replays the log at path (ReadLog), cuts the file back to the good
// prefix, so that the next frame does not follow a torn one, and opens it
// for appending. A missing file, or one cut inside its header, starts again
// with the header. A log ReadLog refuses is left as it is.
func OpenLog(path, header string, replay func(body []byte) (bool, error)) (*Log, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	good, err := ReadLog(raw, header, replay)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err = f.Truncate(int64(good)); err == nil && good == 0 {
		good, err = f.WriteString(header)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, size: int64(good)}, nil
}

// NextLog writes the next generation of the log at path — header, then the
// frames fill writes — under path+".tmp", fsyncs it if sync, and publishes
// it with one rename. A crash before the rename leaves the generation before
// as it was, beside a .tmp file for the next open to ignore. NextLog returns
// the new generation open for appending; on failure it removes the file.
func NextLog(path, header string, sync bool, fill func(w *bufio.Writer) error) (*Log, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f) // keeps its first write error for Flush
	w.WriteString(header)
	if err = errors.Join(fill(w), w.Flush()); err == nil && sync {
		err = f.Sync()
	}
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		return nil, errors.Join(err, os.Remove(tmp))
	}
	return &Log{f: f, size: size}, nil
}

// Append writes rec, whole frames, at the log's end. A write that fails is
// cut back, so that no torn frame precedes the next; if the cut-back fails
// too, the log is broken, and this append and every later one return that.
func (l *Log) Append(rec []byte) error {
	if l.broken != nil {
		return l.broken
	}
	if _, err := l.f.Write(rec); err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("log unwritable: %v (cutting it back failed too: %v)", err, terr)
			return l.broken
		}
		return err
	}
	l.size += int64(len(rec))
	return nil
}

// Size is the length of the log.
func (l *Log) Size() int64 { return l.size }

func (l *Log) Sync() error { return l.f.Sync() }

func (l *Log) Close() error { return l.f.Close() }
