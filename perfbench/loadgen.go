package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// result is the client's record of one request. Times are relative to
// the start of the request's phase.
type result struct {
	Req       request
	Due, Done time.Duration
	Status    int
	Err       error
	Bytes     int
	VMs       int
	TraceID   string
	// Body is kept only for requests in the oracle sample.
	Body []byte
}

// ok reports whether the request succeeded and its body is well formed:
// status 200 and one CSV row per VM the server says it generated.
func (r result) ok() bool { return r.Err == nil && r.Status == http.StatusOK }

// latency is the time from the request's due time to its last byte.
func (r result) latency() time.Duration { return r.Done - r.Due }

// loadgen drives one server over at most conns keep-alive connections,
// one worker goroutine per connection.
type loadgen struct {
	client *http.Client
	url    string
	conns  int
}

func newLoadgen(base string, conns int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, url: base + "/generate", conns: conns}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// do sends one request and reads the whole response into buf. The body
// is copied out only when keep is set.
func (lg *loadgen) do(req request, buf *bytes.Buffer, keep bool) result {
	var res result
	resp, err := lg.client.Post(lg.url, "application/json", bytes.NewReader(req.Body))
	if err != nil {
		res.Err = err
		return res
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	res.Status = resp.StatusCode
	res.Bytes = buf.Len()
	res.TraceID = resp.Header.Get("X-Trace-Id")
	if err != nil {
		res.Err = fmt.Errorf("read body: %w", err)
		return res
	}
	if res.Status != http.StatusOK {
		return res
	}
	vms, err := strconv.Atoi(resp.Header.Get("X-Trace-VMs"))
	if err != nil {
		res.Err = fmt.Errorf("bad X-Trace-VMs header: %w", err)
		return res
	}
	res.VMs = vms
	if rows := bytes.Count(buf.Bytes(), []byte{'\n'}); rows != vms+1 {
		res.Err = fmt.Errorf("body has %d lines for %d VMs", rows, vms)
		return res
	}
	if keep {
		res.Body = bytes.Clone(buf.Bytes())
	}
	return res
}

// open replays an open-loop schedule: a dispatcher releases each
// request at its due time to the first free worker, so a slow server
// delays later requests instead of slowing the arrivals. It returns
// every result in schedule order and the latest any request was
// released after its due time.
func (lg *loadgen) open(reqs []request, keep map[int]bool) ([]result, time.Duration) {
	results := make([]result, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < lg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				res := lg.do(reqs[i], &buf, keep[i])
				res.Req, res.Due, res.Done = reqs[i], reqs[i].Due, time.Since(start)
				results[i] = res
			}
		}()
	}
	var lateMax time.Duration
	for i, r := range reqs {
		if d := r.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		lateMax = max(lateMax, time.Since(start)-r.Due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return results, lateMax
}

// closed runs one worker per connection, each sending its next request
// as soon as the previous one completes, until dur has passed. next
// returns worker w's i-th request and whether to keep its body. It
// returns every result and the time from the start to the last
// completion.
func (lg *loadgen) closed(dur time.Duration, next func(w, i int) (request, bool)) ([]result, time.Duration) {
	perWorker := make([][]result, lg.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < lg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; time.Since(start) < dur; i++ {
				req, keep := next(w, i)
				sent := time.Since(start)
				res := lg.do(req, &buf, keep)
				res.Req, res.Due, res.Done = req, sent, time.Since(start)
				perWorker[w] = append(perWorker[w], res)
			}
		}()
	}
	wg.Wait()
	var all []result
	var last time.Duration
	for _, rs := range perWorker {
		all = append(all, rs...)
		for _, r := range rs {
			last = max(last, r.Done)
		}
	}
	return all, last
}
