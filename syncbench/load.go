package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// Outcome is one sent request as the generator saw it.
type Outcome struct {
	Item    int
	Timed   bool          // false for closed-loop warm-up requests
	Sent    time.Time     // when the request went out
	Latency time.Duration // closed: send→answer; open: scheduled→answer, less Over
	Service time.Duration // send→answer
	Late    time.Duration // open loop: send − scheduled
	// Over is how late the open loop's dispatcher, sleeping until this
	// or an earlier request was due, woke after this request's due time:
	// the generator's own scheduling delay, which Latency leaves out. A
	// wait for a free connection, which syncd's slow answers cause,
	// stays in.
	Over   time.Duration
	Cache  string // X-Cache header
	Status int
	Body   []byte
	Err    error
	// Jobs: server-stamped queue (created→running) and run
	// (running→terminal) times, and the terminal event.
	JobQueue, JobRun time.Duration
	JobFinal         *jobs.Event
}

// conn is one keep-alive HTTP/1.1 connection to syncd. Requests are
// written and answers read on the caller's goroutines. net/http's
// client passes every request through the connection's own read and
// write goroutines, whose wake-ups added 0.02-0.05 ms to a cache hit's
// latency of a few tenths of a millisecond.
type conn struct {
	host string // host:port
	nc   net.Conn
	br   *bufio.Reader
	wbuf bytes.Buffer
	stop func() bool // unregisters the close-on-cancel hook
	err  error       // the first failure; every later exchange fails with it
}

// dial connects to base ("http://host:port"). A failed dial leaves a
// conn whose every exchange fails. Cancelling ctx closes the connection.
func dial(ctx context.Context, base string) *conn {
	c := &conn{host: strings.TrimPrefix(base, "http://")}
	var d net.Dialer
	c.nc, c.err = d.DialContext(ctx, "tcp", c.host)
	if c.err == nil {
		c.br = bufio.NewReaderSize(c.nc, 64<<10)
		c.stop = context.AfterFunc(ctx, func() { c.nc.Close() })
	}
	return c
}

func (c *conn) close() {
	if c.nc != nil {
		c.stop()
		c.nc.Close()
	}
}

func (c *conn) fail(err error) error {
	if c.err == nil {
		c.err = err
		c.close()
	}
	return c.err
}

// write sends one request.
func (c *conn) write(method, path string, body []byte) error {
	if c.err != nil {
		return c.err
	}
	c.wbuf.Reset()
	fmt.Fprintf(&c.wbuf, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.host)
	if body != nil {
		fmt.Fprintf(&c.wbuf, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	c.wbuf.WriteString("\r\n")
	c.wbuf.Write(body)
	if _, err := c.nc.Write(c.wbuf.Bytes()); err != nil {
		return c.fail(err)
	}
	return nil
}

// read reads one whole answer.
func (c *conn) read() (status int, cache string, body []byte, err error) {
	if c.err != nil {
		return 0, "", nil, c.err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, "", nil, c.fail(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", nil, c.fail(err)
	}
	if resp.Close {
		c.fail(fmt.Errorf("syncd closed the connection"))
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, nil
}

// send issues one item and fills o with the answer.
func (c *conn) send(it Item, o *Outcome) {
	if o.Err = c.write(it.Method, it.Path, it.Body); o.Err == nil {
		c.receive(it, o)
	}
}

// receive reads the answer to it into o. A job is then streamed to its
// terminal event.
func (c *conn) receive(it Item, o *Outcome) {
	o.Status, o.Cache, o.Body, o.Err = c.read()
	if o.Err != nil || it.Kind != "job" {
		return
	}
	if o.Status != http.StatusAccepted {
		o.Err = fmt.Errorf("job submit answered %d", o.Status)
		return
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(o.Body, &snap); err != nil {
		o.Err = fmt.Errorf("decoding job snapshot: %w", err)
		return
	}
	c.streamJob(snap.ID, o)
}

// streamJob reads a job's NDJSON stream, which syncd ends after the
// terminal event, and keeps that event.
func (c *conn) streamJob(id string, o *Outcome) {
	if o.Err = c.write("GET", "/v1/jobs/"+id+"/stream", nil); o.Err != nil {
		return
	}
	status, _, body, err := c.read()
	if err != nil {
		o.Err = err
		return
	}
	if status != http.StatusOK {
		o.Status, o.Err = status, fmt.Errorf("job stream answered %d", status)
		return
	}
	var running float64 = -1
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ev jobs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			o.Err = fmt.Errorf("decoding job event: %w", err)
			return
		}
		if ev.State == jobs.Running && running < 0 {
			running = ev.Elapsed
			o.JobQueue = seconds(ev.Elapsed)
		}
		if ev.State.Terminal() {
			o.JobRun = seconds(ev.Elapsed - running)
			o.JobFinal = &ev
			o.Status = http.StatusOK
			return
		}
	}
	o.Err = fmt.Errorf("job stream ended without a terminal event")
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runClosed sends w.Sequence in order from one client and returns the
// outcomes plus the wall time of the timed (post-warm-up) part. before
// runs once, right before the first timed request.
func runClosed(ctx context.Context, base string, w *Workload, before func()) ([]Outcome, time.Duration) {
	c := dial(ctx, base)
	defer c.close()
	out := make([]Outcome, len(w.Sequence))
	var start time.Time
	for i, idx := range w.Sequence {
		if i == w.Warmup {
			before()
			start = time.Now()
		}
		o := &out[i]
		o.Item, o.Timed, o.Sent = idx, i >= w.Warmup, time.Now()
		c.send(w.Items[idx], o)
		o.Latency = time.Since(o.Sent)
		o.Service = o.Latency
	}
	return out, time.Since(start)
}

// runOpen sends w.Sequence on its fixed schedule over conns connections.
// The dispatcher sleeps until each request is due and writes it to a
// free connection itself; each connection's reader, already waiting on
// the socket, reads the answer and frees the connection. So the
// generator adds one wake-up per request, the reader's. A request whose
// slot finds every connection busy waits for one; its latency still
// runs from its scheduled time, and the wait is reported as lateness.
// The dispatcher's own wake-up delay is reported as lateness too, but
// left out of latency: in runs where the hypervisor took the host's
// CPUs away for milliseconds at a time, the dispatcher woke up to 2.7 ms
// late at the 90th percentile, and counting that nearly doubled the
// median latency.
// before runs once, when the first timed request is due; the returned
// wall time runs from then to the last answer.
func runOpen(ctx context.Context, base string, w *Workload, conns int, before func()) ([]Outcome, time.Duration) {
	out := make([]Outcome, len(w.Sequence))
	type openConn struct {
		*conn
		sent chan int // the request just written, for the reader
	}
	t0 := time.Now()
	free := make(chan *openConn, conns)
	all := make([]*openConn, conns)
	var wg sync.WaitGroup
	for k := range all {
		oc := &openConn{conn: dial(ctx, base), sent: make(chan int, 1)}
		all[k] = oc
		free <- oc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if oc.br != nil {
					_, _ = oc.br.Peek(1) // park on the socket until an answer starts
				}
				i, ok := <-oc.sent
				if !ok {
					return
				}
				o := &out[i]
				if o.Err == nil {
					oc.receive(w.Items[o.Item], o)
				}
				done := time.Now()
				due := t0.Add(w.Due(i))
				o.Latency, o.Service = done.Sub(due)-o.Over, done.Sub(o.Sent)
				free <- oc
			}
		}()
	}
	// The runtime's timers wake up to a millisecond late on this path;
	// sleeping the dispatcher's own thread keeps the schedule to tens of
	// microseconds.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var timed, woke time.Time
	for i := range w.Sequence {
		due := t0.Add(w.Due(i))
		if time.Until(due) > 0 {
			for d := time.Until(due); d > 0; d = time.Until(due) {
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil)
			}
			woke = time.Now()
		}
		if i == w.Warmup {
			before()
			timed = time.Now()
		}
		oc := <-free
		o := &out[i]
		o.Item, o.Timed, o.Sent = w.Sequence[i], i >= w.Warmup, time.Now()
		o.Late, o.Over = o.Sent.Sub(due), max(woke.Sub(due), 0)
		it := w.Items[o.Item]
		o.Err = oc.write(it.Method, it.Path, it.Body)
		oc.sent <- i
	}
	for range all {
		<-free
	}
	for _, oc := range all {
		close(oc.sent)
		oc.close()
	}
	wg.Wait()
	return out, time.Since(timed)
}
