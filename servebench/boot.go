package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"soda"
	"soda/internal/backend/sqldb"
	"soda/internal/backend/sqldriver"
	"soda/internal/server"
	"soda/internal/sqlast"
)

// served is one SODA instance behind a loopback HTTP listener.
type served struct {
	world   *soda.World
	sys     *soda.System
	handler *server.Server
	httpSrv *http.Server
	done    chan error // Serve's return value
	addr    string     // 127.0.0.1:port
	dir     string
	dsn     string // sodalite database name ("" on the memory backend)

	worldS, openS, warmS, setupS float64
}

// backendOptions selects the execution backend; dsn names a fresh
// process-shared sodalite database.
func backendOptions(sqlBackend bool, dsn string) soda.Options {
	if !sqlBackend {
		return soda.Options{}
	}
	return soda.Options{Backend: "sqldb", Driver: sqldriver.DriverName, DSN: dsn}
}

// boot builds the warehouse world, opens a System on an empty data
// directory (the sqldb backend loads the corpus into a fresh sodalite
// database), warms it and brings a loopback listener up. setup_s covers
// exactly that.
func boot(workdir string, sqlBackend bool, n int) (*served, error) {
	dir, err := os.MkdirTemp(workdir, "data-")
	if err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	s := &served{dir: dir}
	if sqlBackend {
		s.dsn = fmt.Sprintf("servebench-%d-%d", os.Getpid(), n)
	}
	t0 := time.Now()
	s.world = soda.Warehouse(soda.WarehouseConfig{})
	t1 := time.Now()
	s.sys, err = soda.Open(s.world, backendOptions(sqlBackend, s.dsn), dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("soda.Open: %w", err)
	}
	t2 := time.Now()
	s.sys.Warm()
	t3 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.sys.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.handler = server.New(s.sys)
	s.httpSrv = &http.Server{Handler: s.handler}
	s.done = make(chan error, 1)
	go func() { s.done <- s.httpSrv.Serve(ln) }()
	s.addr = ln.Addr().String()
	t4 := time.Now()
	s.worldS = t1.Sub(t0).Seconds()
	s.openS = t2.Sub(t1).Seconds()
	s.warmS = t3.Sub(t2).Seconds()
	s.setupS = t4.Sub(t0).Seconds()
	return s, nil
}

// close stops the listener, waits for Serve to return, closes the
// System and removes its data.
func (s *served) close() error {
	err := s.httpSrv.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.sys.Close(); err == nil {
		err = cerr
	}
	if s.dsn != "" {
		sqldriver.Reset(s.dsn)
	}
	os.RemoveAll(s.dir)
	return err
}

// setupRounds is how many times set-up is repeated; setup_s is their
// median.
const setupRounds = 5

// bootMedian boots setupRounds times, keeps the last instance and
// returns the set-up times of all rounds.
func bootMedian(workdir string, sqlBackend bool) (*served, []*served, error) {
	var rounds []*served
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		s, err := boot(workdir, sqlBackend, i)
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, s)
		if i < setupRounds-1 {
			if err := s.close(); err != nil {
				return nil, nil, fmt.Errorf("closing set-up round %d: %w", i, err)
			}
		}
	}
	runtime.GC()
	return rounds[len(rounds)-1], rounds, nil
}

// loadSodalite loads the world's corpus into a fresh sodalite database
// through the sqldb executor, the way soda.Open does for the sqldb
// backend, and returns the executor and the load time.
func loadSodalite(w *soda.World, dsn string) (*sqldb.Executor, float64, error) {
	t0 := time.Now()
	ex, err := sqldb.Open(sqldriver.DriverName, dsn, sqlast.Generic)
	if err != nil {
		return nil, 0, err
	}
	if err := ex.Load(context.Background(), w.DB()); err != nil {
		ex.Close()
		return nil, 0, fmt.Errorf("loading sodalite: %w", err)
	}
	return ex, time.Since(t0).Seconds(), nil
}

// fingerprint identifies the host and run; wall-clock figures are only
// comparable between runs with the same fingerprint.
func fingerprint(seed int64) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf(`{"cpu":%q,"nproc":%d,"gomaxprocs":%d,"go":%q,"os_arch":"%s/%s","seed":%d}`,
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, seed)
}
