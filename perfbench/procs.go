package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// stopGrace is how long a server gets to exit after SIGTERM before
	// it is killed.
	stopGrace = 10 * time.Second
	// readyTimeout bounds one start→ready wait.
	readyTimeout = 30 * time.Second
	// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times.
	clockTicks = 100
)

// proc is one randprivd process the benchmark started.
type proc struct {
	name string
	base string // http://127.0.0.1:<port>
	cmd  *exec.Cmd
	done chan struct{}
}

// live holds every process not yet stopped, so an interrupted run can
// still stop them all.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

func startProc(bin, name, addr, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed outright takes its servers with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, base: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]bool)
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		_ = cmd.Wait() // a TERM exit status is expected; the log holds any failure
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop sends SIGTERM, waits up to stopGrace, then sends SIGKILL, and
// returns once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(stopGrace):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// stopAll stops every live process concurrently and waits for all.
func stopAll(ps []*proc) {
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

func stopLive() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	stopAll(ps)
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// deployment is the set of server processes one workload runs against:
// a single randprivd, or a coordinator plus one worker process sharing a
// cluster directory.
type deployment struct {
	api   *proc
	procs []*proc
}

type deployPlan struct {
	dir               string
	apiAddr, workAddr string
	apiArgs, workArgs []string
	cluster           bool
}

// planDeploy creates fresh state directories under dir and picks ports,
// so that starting the processes is all that remains.
func planDeploy(dir string, cluster bool) (*deployPlan, error) {
	p := &deployPlan{dir: dir, cluster: cluster}
	spool, jobs := filepath.Join(dir, "spool"), filepath.Join(dir, "jobs")
	for _, d := range []string{spool, jobs} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	if p.apiAddr, err = freeAddr(); err != nil {
		return nil, err
	}
	p.apiArgs = []string{"-spool", spool, "-jobs-dir", jobs}
	if cluster {
		clusterDir, workSpool := filepath.Join(dir, "cluster"), filepath.Join(dir, "spool-worker")
		if err := os.MkdirAll(workSpool, 0o755); err != nil {
			return nil, err
		}
		if p.workAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		// No embedded claim loops: every task crosses to the worker.
		p.apiArgs = append(p.apiArgs, "-cluster-dir", clusterDir, "-cluster-workers", "-1", "-node-id", "coordinator")
		p.workArgs = []string{"-role", "worker", "-cluster-dir", clusterDir, "-node-id", "worker1", "-spool", workSpool}
	}
	return p, nil
}

func (p *deployPlan) start(bin string) (*deployment, error) {
	api, err := startProc(bin, "coordinator", p.apiAddr, filepath.Join(p.dir, "coordinator.log"), p.apiArgs...)
	if err != nil {
		return nil, err
	}
	d := &deployment{api: api, procs: []*proc{api}}
	if p.cluster {
		w, err := startProc(bin, "worker", p.workAddr, filepath.Join(p.dir, "worker.log"), p.workArgs...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, w)
	}
	return d, nil
}

func (d *deployment) stop() { stopAll(d.procs) }

// serverStatus is the part of GET /v1/status the benchmark reads.
type serverStatus struct {
	Cluster *struct {
		AliveWorkers int   `json:"alive_workers"`
		BreakerTrips int64 `json:"breaker_trips"`
		TasksByKind  map[string]struct {
			Done int `json:"done"`
		} `json:"tasks_by_kind"`
	} `json:"cluster"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(body, v)
}

func (d *deployment) status(c *http.Client) (serverStatus, error) {
	var st serverStatus
	err := getJSON(c, d.api.base+"/v1/status", &st)
	return st, err
}

// waitReady polls until /healthz answers 200 and, with a worker process,
// /v1/status counts it alive. It fails early if a process exits.
func (d *deployment) waitReady() error {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	healthy := false
	for time.Now().Before(deadline) {
		for _, p := range d.procs {
			select {
			case <-p.done:
				return fmt.Errorf("%s exited during start-up", p.name)
			default:
			}
		}
		if !healthy {
			if resp, err := c.Get(d.api.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				healthy = resp.StatusCode == http.StatusOK
			}
		}
		if healthy && len(d.procs) == 1 {
			return nil
		}
		if healthy {
			if st, err := d.status(c); err == nil && st.Cluster != nil && st.Cluster.AliveWorkers >= len(d.procs)-1 {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("servers not ready after %v", readyTimeout)
}

// cpuSeconds reads a process's user plus system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

func (d *deployment) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range d.procs {
		s, err := cpuSeconds(p.pid())
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// peakRSSMiB sums VmHWM over the deployment's processes.
func (d *deployment) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, p := range d.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				total += kb / 1024
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for %s", p.name)
		}
	}
	return total, nil
}

// hostTicks is the aggregate CPU line of /proc/stat.
type hostTicks struct {
	iowait, steal, total int64
}

func readHostTicks() (hostTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t hostTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostTicks{}, err
		}
		t.total += n
		switch i {
		case 4:
			t.iowait = n
		case 7:
			t.steal = n
		}
	}
	return t, nil
}
