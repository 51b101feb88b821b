package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// sutSpec is what the generator tells its child to boot. It crosses the
// process boundary as one JSON argument, so the child receives only the
// topology and never the workload or its seed-derived inputs.
type sutSpec struct {
	Buildings     int    `json:"buildings"`
	Devices       int    `json:"devices"`
	MeasureNodes  int    `json:"measureNodes"`
	MeasureShards int    `json:"measureShards"`
	DataDir       string `json:"dataDir"`
	QCacheBytes   int64  `json:"qcacheBytes"`
}

// sutEndpoints is the child's one line of standard output.
type sutEndpoints struct {
	Master     string   `json:"master"`
	Measure    string   `json:"measure"`
	Nodes      []string `json:"nodes"`
	GoMaxProcs int      `json:"gomaxprocs"`
}

// serveMain runs the process as the SUT child when its arguments say
// `serve -spec {…}` and then exits; otherwise it returns. Both the
// bench binary and its test binary start with it, so either can be
// re-executed as the child.
func serveMain() {
	if len(os.Args) < 2 || os.Args[1] != "serve" {
		return
	}
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	spec := fs.String("spec", "", "topology to boot, as JSON")
	_ = fs.Parse(os.Args[2:])
	if err := serve(*spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench serve:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serve is the SUT child: boot the topology, populate every device
// proxy with one poll, print the endpoints, and run until standard
// input closes — which is what the child sees when the generator dies;
// the generator itself ends a SUT with SIGKILL.
func serve(specJSON string) error {
	var spec sutSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("serve: bad -spec: %w", err)
	}
	d, err := core.Bootstrap(core.Spec{
		District:           district,
		Buildings:          spec.Buildings,
		DevicesPerBuilding: spec.Devices,
		// Proxies idle for the whole run: the device side is probed on
		// its own, the workloads drive the measurements plane directly.
		PollEvery:     time.Hour,
		MeasureNodes:  spec.MeasureNodes,
		MeasureShards: spec.MeasureShards,
		DataDir:       spec.DataDir,
		QCacheBytes:   spec.QCacheBytes,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	for _, p := range d.DeviceProxies {
		p.PollOnce()
	}
	ep := sutEndpoints{
		Master:     d.MasterURL,
		Measure:    d.MeasureURL,
		Nodes:      d.MeasureNodeURLs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if len(ep.Nodes) == 0 {
		ep.Nodes = []string{d.MeasureURL}
	}
	line, err := json.Marshal(ep)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(os.Stdout, "%s\n", line); err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // returns at EOF: the stop signal
	return nil
}

// sut is the generator's handle on a running child.
type sut struct {
	sutEndpoints
	spec  sutSpec
	cmd   *exec.Cmd
	stdin io.WriteCloser
	errs  *bytes.Buffer
	done  bool
}

// startSUT re-executes this binary as `bench serve` and waits for its
// endpoint line.
func startSUT(spec sutSpec) (*sut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "serve", "-spec", string(raw))
	s := &sut{spec: spec, cmd: cmd, errs: new(bytes.Buffer)}
	cmd.Stderr = s.errs
	if s.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(out).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &s.sutEndpoints)
	}
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("sut did not report endpoints: %w: %s", err, strings.TrimSpace(s.errs.String()))
	}
	return s, nil
}

// kill delivers SIGKILL — the crash the durability check needs, and
// the quickest way to be rid of a SUT nobody will ask anything again —
// and reaps the child.
func (s *sut) kill() {
	if s.done {
		return
	}
	s.done = true
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	_ = s.stdin.Close()
}

// cpuSeconds reads the child's CPU time so far.
func (s *sut) cpuSeconds() (float64, error) {
	return procCPUSeconds(s.cmd.Process.Pid)
}

// procCPUSeconds is the time a process's threads have spent on a CPU:
// the nanosecond run times of /proc/<pid>/task/*/schedstat where the
// kernel keeps them, else user+system of /proc/<pid>/stat in 10 ms
// ticks (fields 14 and 15).
func procCPUSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	ns := 0.0
	for _, task := range tasks {
		raw, err := os.ReadFile(task)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	if ns > 0 {
		return ns / 1e9, nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat times", pid)
	}
	return (ut + st) / 100, nil
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (s *sut) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// tsdbDir is the storage directory of measurements node i, as
// core.Bootstrap lays it out under the spec's DataDir.
func (s *sut) tsdbDir(i int) string {
	name := "measuredb"
	if s.spec.MeasureNodes > 1 {
		name = fmt.Sprintf("measuredb-%d", i)
	}
	return filepath.Join(s.spec.DataDir, name, "tsdb")
}
