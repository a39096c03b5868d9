package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"time"

	"minesweeper"
)

// streamResult is what one NDJSON run response carried, with the times
// (since the request was sent) at which its parts arrived.
type streamResult struct {
	FirstByte  time.Duration // header line received
	FirstTuple time.Duration // first tuple line received (footer time if none)
	Done       time.Duration // footer received
	Vars       []string
	GAO        []string
	Tuples     int    // tuple lines received
	Bytes      int64  // response body bytes
	Hash       uint64 // FNV-1a over the tuple lines, in arrival order
	First      []int  // the first tuple, parsed (the value of a count query)
	Footer     footer
}

type footer struct {
	Done     bool              `json:"done"`
	Tuples   int               `json:"tuples"`
	TimedOut bool              `json:"timed_out"`
	Canceled bool              `json:"canceled"`
	Aborted  bool              `json:"aborted"`
	Error    string            `json:"error"`
	Stats    minesweeper.Stats `json:"stats"`
}

type header struct {
	Vars []string `json:"vars"`
	GAO  []string `json:"gao"`
}

// errCorrupt marks a response that does not follow the NDJSON run
// protocol: a malformed tuple line, a missing footer, or a footer that
// disagrees with the lines received. It counts as a wrong answer.
var errCorrupt = errors.New("corrupt run response")

// readStream consumes one run response body. Every tuple line must be a
// JSON array of exactly len(vars) integers; the footer must say done,
// report no error or cut, and count exactly the tuple lines received.
func readStream(body io.Reader, sent time.Time) (*streamResult, error) {
	br := bufio.NewReaderSize(body, 64<<10)
	res := &streamResult{}
	h := fnv.New64a()
	lineNo := 0
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return res, fmt.Errorf("%w: line %d longer than %d bytes", errCorrupt, lineNo+1, br.Size())
		}
		if len(line) == 0 && err != nil {
			if err == io.EOF {
				return res, fmt.Errorf("%w: stream ended after %d lines without a footer", errCorrupt, lineNo)
			}
			return res, err
		}
		lineNo++
		res.Bytes += int64(len(line))
		if err == io.EOF {
			return res, fmt.Errorf("%w: line %d is not newline-terminated", errCorrupt, lineNo)
		}
		switch {
		case lineNo == 1:
			res.FirstByte = time.Since(sent)
			var hd header
			if err := json.Unmarshal(line, &hd); err != nil || len(hd.Vars) == 0 {
				return res, fmt.Errorf("%w: bad header %q", errCorrupt, trim(line))
			}
			res.Vars, res.GAO = hd.Vars, hd.GAO
		case line[0] == '[':
			if res.Tuples == 0 {
				res.FirstTuple = time.Since(sent)
			}
			vals, ok := parseTuple(line, len(res.Vars), res.Tuples == 0)
			if !ok {
				return res, fmt.Errorf("%w: line %d is not a %d-column tuple: %q", errCorrupt, lineNo, len(res.Vars), trim(line))
			}
			if res.Tuples == 0 {
				res.First = vals
			}
			h.Write(line)
			res.Tuples++
		default:
			res.Done = time.Since(sent)
			if res.Tuples == 0 {
				res.FirstTuple = res.Done
			}
			res.Hash = h.Sum64()
			if err := json.Unmarshal(line, &res.Footer); err != nil {
				return res, fmt.Errorf("%w: bad footer %q", errCorrupt, trim(line))
			}
			f := res.Footer
			switch {
			case !f.Done || f.Error != "" || f.TimedOut || f.Canceled || f.Aborted:
				return res, fmt.Errorf("run did not complete: %s", trim(line))
			case f.Tuples != res.Tuples:
				return res, fmt.Errorf("%w: footer counts %d tuples, %d received", errCorrupt, f.Tuples, res.Tuples)
			}
			// Anything after the footer is a protocol violation too.
			if rest, _ := br.Peek(1); len(rest) > 0 {
				return res, fmt.Errorf("%w: data after the footer", errCorrupt)
			}
			return res, nil
		}
	}
}

// parseTuple checks that line is "[v1,…,vk]\n" with k = arity
// non-negative integers, and returns the values when keep is set.
func parseTuple(line []byte, arity int, keep bool) ([]int, bool) {
	if len(line) < 3 || line[0] != '[' || line[len(line)-2] != ']' || line[len(line)-1] != '\n' {
		return nil, false
	}
	body := line[1 : len(line)-2]
	var vals []int
	cols, start := 0, 0
	for i := 0; i <= len(body); i++ {
		if i < len(body) && body[i] != ',' {
			if body[i] < '0' || body[i] > '9' {
				return nil, false
			}
			continue
		}
		if i == start {
			return nil, false // empty field
		}
		if keep {
			v, err := strconv.Atoi(string(body[start:i]))
			if err != nil {
				return nil, false
			}
			vals = append(vals, v)
		}
		cols++
		start = i + 1
	}
	return vals, cols == arity
}

func trim(line []byte) string {
	const max = 120
	if len(line) > max {
		return string(line[:max]) + "…"
	}
	return string(line)
}

// tupleLine renders a tuple exactly as msserve writes it.
func tupleLine(buf []byte, t []int) []byte {
	buf = append(buf, '[')
	for i, v := range t {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']', '\n')
}
