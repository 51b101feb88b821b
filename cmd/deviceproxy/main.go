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
	"repro/internal/dataformat"
	"repro/internal/deviceproxy"
	"repro/internal/protocol/enocean"
	"repro/internal/protocol/ieee802154"
	"repro/internal/tsdb"
	"repro/internal/wal"
	"repro/internal/wsn"
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

	signals := map[dataformat.Quantity]wsn.Signal{
		dataformat.Temperature: {Base: 21, Amplitude: 2, Period: 24 * time.Hour, NoiseStd: 0.1, Min: -10, Max: 40},
		dataformat.Humidity:    {Base: 45, Amplitude: 8, Period: 24 * time.Hour, NoiseStd: 0.8, Min: 0, Max: 100},
	}
	driver, cleanup, actuates, err := buildDriver(*protocol, signals, *seed, *poll)
	if err != nil {
		logger.Fatalf("driver: %v", err)
	}
	defer cleanup()

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

	proxy, err := deviceproxy.New(deviceproxy.Options{
		DeviceURI:            *uri,
		Name:                 *protocol + " device",
		Driver:               driver,
		Senses:               []dataformat.Quantity{dataformat.Temperature, dataformat.Humidity},
		Actuates:             actuates,
		PollEvery:            *poll,
		LocalEngine:          localEngine,
		Writer:               writer,
		MasterURL:            *masterURL,
		RateLimit:            limiter,
		DisableLegacyAliases: !*legacy,
		EnablePprof:          *pprof,
	})
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

// buildDriver wires one simulated device plus its driver.
func buildDriver(protocol string, signals map[dataformat.Quantity]wsn.Signal, seed int64, poll time.Duration) (deviceproxy.Driver, func(), []dataformat.Quantity, error) {
	switch protocol {
	case "ieee802.15.4":
		radio := ieee802154.NewRadio(ieee802154.RadioOptions{Seed: seed})
		node, err := wsn.NewNode802154(radio, 0x0D15, 0x0010, signals, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		drv, err := wsn.NewDriver802154(radio, 0x0D15, 0x0001, 0x0010, len(signals))
		if err != nil {
			return nil, nil, nil, err
		}
		return drv, func() { node.Close(); radio.Close() }, nil, nil
	case "zigbee":
		radio := ieee802154.NewRadio(ieee802154.RadioOptions{Seed: seed})
		node, err := wsn.NewNodeZigbee(radio, 0x0D15, 0x0020, signals, true, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		drv, err := wsn.NewDriverZigbee(radio, 0x0D15, 0x0002, 0x0020,
			[]dataformat.Quantity{dataformat.Temperature, dataformat.Humidity, dataformat.SwitchState})
		if err != nil {
			return nil, nil, nil, err
		}
		return drv, func() { node.Close(); radio.Close() }, []dataformat.Quantity{dataformat.SwitchState}, nil
	case "enocean":
		link := &wsn.SerialLink{}
		node := wsn.NewNodeEnOcean(link, enocean.EEPTempHumA50401, 0x01800001, signals, seed)
		node.Start(poll / 2)
		node.Emit()
		drv := wsn.NewDriverEnOcean(link, enocean.EEPTempHumA50401, 0x01800001, nil)
		return drv, node.Close, nil, nil
	case "opc-ua":
		node, err := wsn.NewNodeOPCUA(signals, []dataformat.Quantity{dataformat.Temperature}, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		drv, err := wsn.NewDriverOPCUA(node.Addr(),
			[]dataformat.Quantity{dataformat.Temperature, dataformat.Humidity},
			[]dataformat.Quantity{dataformat.Temperature})
		if err != nil {
			node.Close()
			return nil, nil, nil, err
		}
		return drv, node.Close, []dataformat.Quantity{dataformat.Temperature}, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown protocol %q", protocol)
	}
}
