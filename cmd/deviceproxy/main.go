// Command deviceproxy runs one device-proxy over a simulated device.
// It is the standalone deployment of Fig. 1(b): dedicated layer (choose
// the protocol with -protocol), local database, and web service layer,
// registering on the master and shipping every sample to the
// measurements database's batched /v2 ingest plane.
//
// Usage:
//
//	deviceproxy -uri urn:district:turin/building:b01/device:t1 \
//	    -protocol zigbee -master http://127.0.0.1:8080 \
//	    -ingest http://measuredb-host:9002 -addr :0 -poll 1s
//
// Live subscribers read the proxy's own /v1/stream; without -ingest the
// proxy only buffers and serves its samples locally.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/deviceproxy"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

func main() {
	uri := flag.String("uri", "", "device ontology URI (required)")
	protocol := flag.String("protocol", "zigbee", "device protocol: ieee802.15.4 | zigbee | enocean | opc-ua")
	masterURL := flag.String("master", "", "master node base URL (empty: no registration)")
	ingestURL := flag.String("ingest", "", "measurements DB base URL to ship samples to via batched /v2 ingest (empty: none)")
	addr := flag.String("addr", "127.0.0.1:0", "web service listen address")
	poll := flag.Duration("poll", time.Second, "sampling period")
	seed := flag.Int64("seed", 1, "simulation seed")
	rate := flag.Float64("rate", 0, "per-client rate limit on hot data routes, requests/second (0: unlimited)")
	legacy := flag.Bool("legacy-aliases", false, "serve unversioned legacy route aliases (escape hatch)")
	dataDir := flag.String("data-dir", "", "durable storage directory for the proxy's local sample buffer (empty = in-memory)")
	fsync := flag.String("fsync", "none", "WAL fsync policy with -data-dir: none | interval | always")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof")
	flag.Parse()

	logger := log.New(os.Stderr, "deviceproxy: ", log.LstdFlags)
	if *uri == "" {
		logger.Fatal("missing -uri")
	}

	opts, stop, err := core.SimulatedDevice(core.Protocol(*protocol), *seed, *poll)
	if err != nil {
		logger.Fatalf("device: %v", err)
	}
	defer stop()

	var writer deviceproxy.SampleWriter
	if *ingestURL != "" {
		batcher := (&client.Client{}).Ingest(*ingestURL).Batcher(client.BatcherOptions{
			FlushEvery: *poll,
			OnError:    func(rows int, err error) { logger.Printf("ingest flush dropped %d rows: %v", rows, err) },
		})
		defer batcher.Close()
		writer = batcher
	}

	var limiter *api.RateLimiter
	if *rate > 0 {
		limiter = api.NewRateLimiter(*rate, int(*rate*2)+1)
	}

	// The local database layer: an in-memory buffer by default, a
	// WAL-backed engine when -data-dir makes the buffer restart-proof.
	var localEngine tsdb.Engine
	if *dataDir != "" {
		mode, err := wal.ParseMode(*fsync)
		if err != nil {
			logger.Fatal(err)
		}
		localEngine, err = tsdb.OpenSharded(tsdb.ShardedOptions{
			Shards: 1,
			Dir:    filepath.Join(*dataDir, "localdb"),
			Fsync:  mode,
			Store:  tsdb.Options{MaxSamplesPerSeries: 8192},
		})
		if err != nil {
			logger.Fatalf("local db: %v", err)
		}
	}

	opts.DeviceURI = *uri
	opts.LocalEngine = localEngine
	opts.Writer = writer
	opts.MasterURL = *masterURL
	opts.RateLimit = limiter
	opts.DisableLegacyAliases = !*legacy
	opts.EnablePprof = *pprof
	proxy, err := deviceproxy.New(opts)
	if err != nil {
		logger.Fatalf("proxy: %v", err)
	}
	bound, err := proxy.Run(*addr)
	if err != nil {
		logger.Fatalf("run: %v", err)
	}
	fmt.Printf("device proxy for %s (%s) listening on http://%s\n", *uri, *protocol, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Print("shutting down")
	proxy.Close()
}
