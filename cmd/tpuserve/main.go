// Command tpuserve exercises the deadline-aware serving layer.
//
//	tpuserve                  # virtual-time load sweep: the Table 4 knee for all six apps
//	tpuserve -mode live       # wall-clock demo: batcher + metrics over a simulated backend
//	tpuserve -mode live -json # same, but dump the metrics registry as JSON
//	tpuserve -mode chaos      # fault-injected fleet sweep: kill/throttle devices mid-load
//	tpuserve -mode sdc        # silent-data-corruption campaign: bit flips vs integrity tiers
//	tpuserve -mode cluster    # multi-host fleet: routing, autoscaling, host kill mid-ramp
//	tpuserve -mode cluster-chaos # zoned fleet: full-zone outage, retry budgets, storm control
//	tpuserve -mode rollout    # safe change management: canary analysis, SLO-gated rollback
//
// The sweep mode replays each app's deadline-aware batching policy against
// open-loop Poisson arrivals at increasing rates and prints the
// latency-bounded-throughput curve: achieved throughput tracks offered
// load up to deadline-safe capacity, then flattens while the p99 of served
// requests stays inside the 7 ms SLA.
//
// The live mode runs the real wall-clock server: per-model lanes, bounded
// queues, fill-wait batching, shed-at-dispatch — with service times slowed
// by -timescale so a laptop can watch the batcher work. It finishes by
// printing the live metrics registry. Two observability flags extend it:
//
//   - -listen <addr> boots the ops HTTP endpoint for the run's duration,
//     serving /metrics (Prometheus text exposition of the serve registry),
//     /healthz, /trace (Chrome trace-event JSON of recorded request spans,
//     loadable in Perfetto), and /debug/pprof. Request-scoped tracing and
//     structured logging switch on with the endpoint; -sample N keeps one
//     request trace in every N.
//   - -metrics-every <dur> periodically flushes the live metrics registry
//     to stdout while load runs, so the batcher's behaviour is visible
//     before the final report.
//
// The chaos mode serves the six apps' tiny functional variants from a real
// multi-device runtime fleet behind the serving layer, injects the faults
// described by -chaos (see fault.ParsePlan: seed=7,rate=0.02,...), kills
// the -kill devices and throttles the -slow devices by -slowx partway
// through the stream, and prints per-app error rates and p99s against a
// healthy baseline of the same workload:
//
//	tpuserve -mode chaos -chaos seed=7,rate=0.01 -kill 3 -slow 2 -slowx 8
//
// The sdc mode runs the silent-data-corruption campaign: every app sees
// the same seeded sequence of single-bit upsets (Unified Buffer, weight
// DRAM, accumulators, PE partial sums) on an integrity-off, a detect and
// a detect+correct fleet, and the report gives the detection rate over
// output-affecting flips plus the detect+correct bit-exactness rate:
//
//	tpuserve -mode sdc -seed 11 -flips 16
//
// The cluster mode runs the datacenter scale-out experiment in virtual
// time on the discrete-event core: the six apps' Table 4 service models
// behind a front-end router on a simulated multi-host fleet, offered a
// 25%->150% capacity ramp while one host is hard-killed mid-ramp. The
// report shows each app's placement, failover traffic, autoscaler
// decisions and whether the 7 ms p99 SLA held. Three flags export the
// run's fleet observability artifacts: -report and -report-json write the
// saturation analysis (per-app knee rate, bottleneck attribution, SLO
// burn) as text or JSON to a file or - for stdout, and -trace-json exports
// the ramp's virtual-time spans as Chrome trace-event JSON for Perfetto
// (saying on stderr if the span ring dropped any):
//
//	tpuserve -mode cluster -hosts 8 -devices-per-host 4 -router bounded-hash
//	tpuserve -mode cluster -report - -report-json report.json -trace-json ramp.json
//
// The cluster-chaos mode runs the robustness campaign: the same six apps
// on a fleet partitioned into -zones failure domains, with a full zone
// (a quarter of the hosts) killed at 75% load and revived later. The same
// seed runs three ways — healthy, defended (zone-aware placement, per-app
// retry budgets, deadline-aware failover, autoscaler incident guard), and
// a NoBudget control that demonstrates the retry storm — and the report
// compares them and checks the acceptance criteria (exit 1 on violation).
// -chaos-plan layers extra scripted failures (partitions, flapping hosts,
// degraded-slow hosts) onto the campaign:
//
//	tpuserve -mode cluster-chaos -zones 4
//	tpuserve -mode cluster-chaos -chaos-plan 'part=4@0.55-0.7,flap=5@0.9x2/0.1'
//
// The cluster-chaos and rollout modes write their saturation report with
// -report and -report-json as the cluster mode does (the rollout mode's is
// the good v2 run's). Neither campaign records spans, so each rejects
// -trace-json with exit status 2 before it runs.
//
// The rollout mode runs the safe change management campaign: the fleet is
// taken from model version v1 to v2 by the rollout controller — cordon,
// graceful drain, re-place, canary analysis, wave-by-wave promotion. The
// same seed runs three ways — healthy (no change), a bad v2 whose -bad-factor
// service-time inflation must be caught at the canary stage and auto-rolled
// back, and a good v2 that must reach 100% of the fleet with zero SLO
// error-budget burn — and the report compares them and checks the acceptance
// criteria (exit 1 on violation). -rollout-plan overrides the bad run's plan
// (the good run reuses it with factor=1):
//
//	tpuserve -mode rollout -zones 4 -bad-factor 4
//	tpuserve -mode rollout -rollout-plan 'start=0.2,factor=4,canary=0.1,windows=2,window=0.05,wave=2,drain=0.05'
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tpusim/internal/cluster"
	"tpusim/internal/experiments"
	"tpusim/internal/fault"
	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/obs"
	"tpusim/internal/serve"
	"tpusim/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tpuserve: ")
	mode := flag.String("mode", "sweep", "sweep (virtual-time knee curves), live (wall-clock server demo), chaos, sdc, cluster, cluster-chaos or rollout")
	duration := flag.Duration("duration", 2*time.Second, "live and chaos modes: how long to offer load")
	timescale := flag.Float64("timescale", 500, "live mode: slow modeled service times by this factor")
	loadFrac := flag.Float64("load", 0.8, "live and chaos modes: offered load as a fraction of deadline-safe capacity")
	asJSON := flag.Bool("json", false, "live mode: print the metrics registry as JSON instead of text")
	listen := flag.String("listen", "", "live mode: serve /metrics, /healthz, /trace, /debug/pprof on this address (e.g. :8080)")
	metricsEvery := flag.Duration("metrics-every", 0, "live mode: flush the metrics registry to stdout at this interval (0 = off)")
	sampleEvery := flag.Int("sample", 1, "live mode with -listen: record every Nth request's trace")
	chaosSpec := flag.String("chaos", "seed=1", "chaos mode: fault plan spec (seed=7,rate=0.02,slow=0.05,flip-ub=0.01,...)")
	devices := flag.Int("devices", 4, "chaos mode: fleet size")
	killDevs := flag.String("kill", "", "chaos mode: devices to hard-kill mid-stream ('+'-separated, e.g. 3 or 0+3)")
	slowDevs := flag.String("slow", "", "chaos mode: devices to throttle mid-stream ('+'-separated)")
	slowX := flag.Float64("slowx", 8, "chaos mode: mid-stream throttle factor for -slow devices")
	faultAt := flag.Float64("fault-at", 0.3, "chaos mode: fraction of the stream at which -kill/-slow strike")
	sdcSeed := flag.Int64("seed", 11, "sdc mode: campaign seed (flip addresses, bits, weight init)")
	sdcFlips := flag.Int("flips", 16, "sdc mode: injected flips per app")
	hosts := flag.Int("hosts", 8, "fleet modes (cluster, cluster-chaos, rollout): fleet hosts")
	devsPerHost := flag.Int("devices-per-host", 4, "fleet modes: devices per host")
	router := flag.String("router", "bounded-hash", "fleet modes: routing policy (wrr, least-loaded, bounded-hash)")
	noKill := flag.Bool("no-kill", false, "cluster mode: skip the mid-ramp host kill")
	report := flag.String("report", "", "fleet modes: write the saturation report (text) to this file, or - for stdout")
	reportJSON := flag.String("report-json", "", "fleet modes: write the saturation report as JSON to this file, or - for stdout")
	traceJSON := flag.String("trace-json", "", "cluster mode: export the ramp's virtual-time spans as Chrome trace-event JSON (Perfetto-loadable) to this file; cluster-chaos and rollout record no spans and reject it")
	zones := flag.Int("zones", 4, "cluster-chaos and rollout modes: failure-domain count (a zone fails and recovers as one unit)")
	chaosPlan := flag.String("chaos-plan", "", "cluster-chaos mode: extra chaos actions layered on the zone kill (e.g. 'part=4@0.55-0.7,flap=5@0.9x2/0.1,slow=6x2.5@0.3')")
	rolloutPlan := flag.String("rollout-plan", "", "rollout mode: override the bad run's plan (e.g. 'start=0.2,factor=4,canary=0.1,windows=2,window=0.05,wave=2,drain=0.05')")
	badFactor := flag.Float64("bad-factor", 4, "rollout mode: the bad v2's service-time inflation")
	flag.Parse()
	if err := traceSupported(*mode, *traceJSON); err != nil {
		log.Print(err)
		os.Exit(2)
	}

	switch *mode {
	case "sweep":
		rows, err := experiments.LoadSweepAll()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderLoadSweep(rows))
	case "live":
		if err := live(*duration, *timescale, *loadFrac, *asJSON, *listen, *metricsEvery, *sampleEvery); err != nil {
			log.Fatal(err)
		}
	case "chaos":
		if err := chaos(*chaosSpec, *devices, *killDevs, *slowDevs, *slowX, *faultAt, *duration, *loadFrac); err != nil {
			log.Fatal(err)
		}
	case "sdc":
		r, err := experiments.RunSDC(experiments.SDCConfig{
			Seed: *sdcSeed, FlipsPerApp: *sdcFlips,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderSDC(r))
	case "cluster":
		r, err := experiments.RunCluster(experiments.ClusterConfig{
			Hosts: *hosts, DevicesPerHost: *devsPerHost,
			Router: *router, NoKill: *noKill,
			Trace: *traceJSON != "",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderCluster(r))
		if err := fleetArtifacts(r.Report, r.Trace, *report, *reportJSON, *traceJSON); err != nil {
			log.Fatal(err)
		}
	case "cluster-chaos":
		r, err := experiments.RunClusterChaos(experiments.ClusterChaosConfig{
			Hosts: *hosts, DevicesPerHost: *devsPerHost, Zones: *zones,
			Router: *router, ExtraChaos: *chaosPlan,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderClusterChaos(r))
		if err := fleetArtifacts(r.Report, nil, *report, *reportJSON, ""); err != nil {
			log.Fatal(err)
		}
		if len(r.Acceptance()) > 0 {
			os.Exit(1) // the campaign report already printed the violations
		}
	case "rollout":
		r, err := experiments.RunRollout(experiments.RolloutConfig{
			Hosts: *hosts, DevicesPerHost: *devsPerHost, Zones: *zones,
			Router: *router, BadFactor: *badFactor, Plan: *rolloutPlan,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.RenderRollout(r))
		if err := fleetArtifacts(r.GoodReport, nil, *report, *reportJSON, ""); err != nil {
			log.Fatal(err)
		}
		if len(r.Acceptance()) > 0 {
			os.Exit(1) // the campaign report already printed the violations
		}
	default:
		log.Fatalf("unknown -mode %q (want sweep, live, chaos, sdc, cluster, cluster-chaos or rollout)", *mode)
	}
}

// traceSupported rejects -trace-json for the cluster-chaos and rollout
// modes, whose campaigns record no spans, before either runs.
func traceSupported(mode, traceJSON string) error {
	if traceJSON != "" && (mode == "cluster-chaos" || mode == "rollout") {
		return fmt.Errorf("-trace-json: -mode %s records no spans", mode)
	}
	return nil
}

// fleetArtifacts writes a fleet mode's optional outputs: its saturation
// report as text and/or JSON ("-" means stdout), and its recorded
// virtual-time trace as Chrome trace-event JSON. An empty path skips its
// output.
func fleetArtifacts(rep *cluster.SaturationReport, trace *obs.Tracer, report, reportJSON, traceJSON string) error {
	emit := func(path string, data []byte) error {
		if path == "-" {
			_, err := os.Stdout.Write(data)
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if report != "" {
		if err := emit(report, []byte(rep.Render())); err != nil {
			return fmt.Errorf("write -report: %w", err)
		}
	}
	if reportJSON != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := emit(reportJSON, append(data, '\n')); err != nil {
			return fmt.Errorf("write -report-json: %w", err)
		}
	}
	if traceJSON != "" {
		return writeTrace(traceJSON, trace, os.Stderr)
	}
	return nil
}

// writeTrace writes trace's spans to path as Chrome trace-event JSON. When
// the span ring evicted spans, it says so on warn: the file then holds
// only the newest spans.
func writeTrace(path string, trace *obs.Tracer, warn io.Writer) error {
	spans := trace.Spans()
	if d := trace.Dropped(); d > 0 {
		fmt.Fprintf(warn, "tpuserve: -trace-json: the span ring dropped the oldest %d spans; %s keeps the last %d\n", d, path, len(spans))
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write -trace-json: %w", err)
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chaos runs the fault-injected fleet sweep and prints the baseline/chaos
// comparison.
func chaos(spec string, devices int, killSpec, slowSpec string, slowX, faultAt float64,
	duration time.Duration, loadFrac float64) error {
	if err := errors.Join(positive("load", loadFrac), positive("slowx", slowX), positive("fault-at", faultAt)); err != nil {
		return err
	}
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		return err
	}
	parse := func(s string) ([]int, error) {
		if strings.TrimSpace(s) == "" {
			return nil, nil
		}
		var out []int
		for _, part := range strings.Split(s, "+") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad device list %q: %v", s, err)
			}
			out = append(out, n)
		}
		return out, nil
	}
	kill, err := parse(killSpec)
	if err != nil {
		return err
	}
	slow, err := parse(slowSpec)
	if err != nil {
		return err
	}
	res, err := experiments.RunChaos(experiments.ChaosConfig{
		Devices:    devices,
		Duration:   duration,
		LoadFrac:   loadFrac,
		Seed:       plan.Seed,
		Plan:       plan,
		Kill:       kill,
		Slow:       slow,
		SlowFactor: slowX,
		FaultAt:    faultAt,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderChaos(res))
	return nil
}

// positive rejects a float flag's value unless it is a positive finite
// number. NaN fails every comparison, so the condition admits x > 0 instead
// of refusing x <= 0, which NaN would pass.
func positive(flag string, x float64) error {
	if !(x > 0 && x <= math.MaxFloat64) {
		return fmt.Errorf("-%s %v: want a positive finite number", flag, x)
	}
	return nil
}

// live drives the wall-clock server with Poisson arrivals for each app.
// Modeled service times are stretched by scale, and offered rates shrink by
// the same factor, so the batching dynamics (relative to the SLA) are
// preserved while staying at laptop-friendly request rates.
func live(duration time.Duration, scale, loadFrac float64, asJSON bool,
	listen string, metricsEvery time.Duration, sampleEvery int) error {
	if err := errors.Join(positive("timescale", scale), positive("load", loadFrac)); err != nil {
		return err
	}
	// The backend sleeps exactly the modeled time: the service model below
	// is already stretched by scale.
	backend := serve.NewSimBackend(1)
	srv := serve.NewServer(backend)

	// Telemetry: tracing and structured logs switch on with the ops
	// endpoint (there is no one to scrape them otherwise).
	if listen != "" {
		tracer := obs.NewTracer(obs.DefaultCapacity)
		tracer.SetSampleEvery(sampleEvery)
		srv.Observe(tracer, obs.NewLogger(os.Stderr, slog.LevelWarn))
		ops := obs.NewOps(tracer)
		ops.AddCollector(srv.Metrics().WritePrometheus)
		opsSrv, err := ops.Start(listen)
		if err != nil {
			return err
		}
		defer opsSrv.Close()
		fmt.Printf("ops endpoint on %s (/metrics /healthz /trace /debug/pprof)\n", opsSrv.URL)
	}
	type app struct {
		name string
		rate float64 // wall-clock offered rate
	}
	var apps []app
	for _, b := range models.All() {
		name := b.Model.Name
		// The scaled service model: the policy resolves against scaled
		// times and a scaled SLA, keeping the same safe batch.
		sm := latency.ServiceFunc(func(n int) (float64, error) {
			s, err := experiments.TPUBatchSeconds(name, n)
			return s * scale, err
		})
		backend.AddModel(name, sm)
		plan, err := srv.Register(name, serve.ModelConfig{
			Policy:  serve.Policy{MaxBatch: b.Model.Batch, SLASeconds: 7e-3 * scale},
			Service: sm,
		})
		if err != nil {
			return err
		}
		capacity := float64(plan.SafeBatch) / plan.SafeServiceSeconds
		apps = append(apps, app{name: name, rate: loadFrac * capacity})
		fmt.Printf("%-6s safe batch %4d  svc %6.2f ms (x%g)  offered %6.1f req/s\n",
			name, plan.SafeBatch, plan.SafeServiceSeconds*1e3, scale, loadFrac*capacity)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{}) // closed, so every generator sees it
	time.AfterFunc(duration, func() { close(stop) })
	if metricsEvery > 0 {
		ticker := time.NewTicker(metricsEvery)
		defer ticker.Stop()
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					fmt.Println()
					fmt.Print(srv.Metrics().Text())
				}
			}
		}()
	}
	for _, a := range apps {
		wg.Add(1)
		go func(a app) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			var inner sync.WaitGroup
			for {
				select {
				case <-stop:
					inner.Wait()
					return
				default:
				}
				time.Sleep(time.Duration(rng.ExpFloat64() / a.rate * float64(time.Second)))
				inner.Add(1)
				go func() {
					defer inner.Done()
					srv.Submit(a.name, tensor.NewF32(1, 1)) //nolint:errcheck // sheds are expected
				}()
			}
		}(a)
	}
	wg.Wait()
	srv.Close()

	if asJSON {
		data, err := srv.Metrics().JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Println()
	fmt.Print(srv.Metrics().Text())
	return nil
}
