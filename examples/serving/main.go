// Serving: drive a two-tenant chassis through the v2 scheduler —
// admission-controlled Submit with per-request contexts, weighted fair
// scheduling, fail-fast backpressure, and a graceful drain. This is
// the always-on counterpart to examples/quickstart's one-shot task.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"ccai"
	"ccai/internal/xpu"
)

func main() {
	// 1. A chassis with two tenant slices (A100 + N150d) and the
	//    observability hub on, so the run leaves a metrics trail.
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{xpu.A100, xpu.N150d}, ccai.WithObserve())
	if err != nil {
		log.Fatal(err)
	}
	defer mp.Close()
	if err := mp.EstablishTrustAll(); err != nil {
		log.Fatal(err)
	}

	// 2. A long-lived scheduler: tenant 1 weighted 3× tenant 0, queues
	//    bounded at 8 requests each.
	s, err := mp.NewScheduler(ccai.SchedulerConfig{
		QueueDepth: 8,
		Weights:    []int{1, 3},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Submit never blocks: each request is admitted (a Handle) or
	//    rejected immediately (ErrQueueFull once a tenant's queue is at
	//    capacity — shed load at the edge instead of buffering it).
	input := bytes.Repeat([]byte{0x5a}, 4096)
	task := ccai.Task{Input: input, Kernel: ccai.KernelXOR, Param: 0xff}
	var handles []*ccai.Handle
	admitted, rejected := 0, 0
	for i := 0; i < 24; i++ {
		h, err := s.Submit(context.Background(), ccai.TenantTask{Tenant: i % 2, Task: task})
		if errors.Is(err, ccai.ErrQueueFull) {
			rejected++
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		admitted++
		handles = append(handles, h)
	}
	fmt.Printf("admitted %d requests, shed %d at the queue edge\n", admitted, rejected)

	// 4. Collect. Handle.Wait blocks under a context and returns the
	//    request's full TenantResult record (tenant, batch index, output).
	ok := 0
	for _, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if res.Output[0] == input[0]^0xff {
			ok++
		}
	}

	// 5. A request with a deadline: if it expires while queued it never
	//    touches the pipeline, and the handle reports ErrDeadlineExceeded
	//    (a cancel that lands mid-run drains safely instead — stream
	//    state is never left mid-protocol either way).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hd, err := s.Submit(ctx, ccai.TenantTask{Tenant: 0, Task: task})
	if err != nil {
		log.Fatal(err)
	}
	if res, err := hd.Wait(context.Background()); err != nil {
		fmt.Printf("deadline request (tenant %d): %v\n", res.Tenant, err)
	} else {
		ok++
	}
	fmt.Printf("%d results verified; deadline request waited %v in queue\n", ok, hd.QueueWait())

	// 6. Graceful drain: admission stops, everything in flight finishes.
	if err := s.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	snap := mp.MetricsSnapshot()
	fmt.Printf("sched.admitted{tenant=0}=%d sched.admitted{tenant=1}=%d rejected{queue_full}=%d\n",
		snap.Counters["sched.admitted{tenant=0}"],
		snap.Counters["sched.admitted{tenant=1}"],
		snap.Counters["sched.rejected{reason=queue_full}"])
}
