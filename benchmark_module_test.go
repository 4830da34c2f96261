package sdquery

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleCompiles type-checks benchmark/ against this tree. The
// repository benchmark is a module of its own, so `go build ./... && go test
// ./...` here never compiles it, and a renamed method or option would pass
// tier-1 and then fail the benchmark run. vet, not build: `go build ./...`
// inside benchmark/ would overwrite the binary committed there.
func TestBenchmarkModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	cmd := exec.Command("go", "-C", "benchmark", "vet", "./...")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
