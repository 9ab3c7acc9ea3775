// Package ioguard bounds the raw input a netlist parser will accept
// before parsing begins. The bench/BLIF parsers already survive
// malformed content via recover barriers, but a recover barrier cannot
// bound memory: a multi-gigabyte upload or a single unbounded line is
// well-formed enough to be buffered in full before anything fails.
// These caps reject such input up front with distinguishable sentinel
// errors, so a server can map them to protocol-level rejections (HTTP
// 413) instead of opaque parse failures.
package ioguard

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// DefaultMaxLine is the longest netlist line the parsers accept when no
// tighter cap is given — matching the scanner buffer bound the parsers
// have always used.
const DefaultMaxLine = 1 << 24

// ErrTooLarge reports input rejected by a byte cap before parsing;
// errors.Is-match it to turn the rejection into a protocol error.
var ErrTooLarge = errors.New("input exceeds the byte cap")

// ErrLineTooLong reports a single line over the line-length cap.
var ErrLineTooLong = errors.New("line exceeds the length cap")

// cappedReader errors with ErrTooLarge once more than max bytes have
// been read — a hard admission bound, unlike io.LimitedReader, which
// silently truncates (turning an oversized file into a confusing parse
// error deep in the netlist).
type cappedReader struct {
	r         io.Reader
	remaining int64 // max+1 at start: only input strictly over max trips the cap
}

// CapBytes wraps r so that reading more than max bytes fails with
// ErrTooLarge. Non-positive max returns r unchanged (no cap).
func CapBytes(r io.Reader, max int64) io.Reader {
	if max <= 0 {
		return r
	}
	return &cappedReader{r: r, remaining: max + 1}
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, ErrTooLarge
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	return n, err
}

// Scanner builds a line scanner over r with maxLine as the hard buffer
// bound (non-positive selects DefaultMaxLine). Pair with ScanErr to map
// the scanner's failure onto the cap sentinels. The buffer starts small
// and grows on demand up to maxLine, so a small netlist costs a small
// buffer.
func Scanner(r io.Reader, maxLine int) *bufio.Scanner {
	if maxLine <= 0 {
		maxLine = DefaultMaxLine
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

// ScanErr maps a scanner failure onto the cap sentinels: bufio's
// too-long error becomes ErrLineTooLong and the capped reader's error
// keeps its identity, both prefixed for context; anything else passes
// through unchanged.
func ScanErr(prefix string, err error, maxLine int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		if maxLine <= 0 {
			maxLine = DefaultMaxLine
		}
		return fmt.Errorf("%s: %w (cap %d bytes)", prefix, ErrLineTooLong, maxLine)
	}
	if errors.Is(err, ErrTooLarge) {
		return fmt.Errorf("%s: %w", prefix, ErrTooLarge)
	}
	return err
}
