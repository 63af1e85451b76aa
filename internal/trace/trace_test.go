package trace

import (
	"sync"
	"testing"
)

func TestRecordAndTotals(t *testing.T) {
	s := NewStats(3)
	s.RecordSend(0, 1, 100)
	s.RecordSend(0, 1, 50)
	s.RecordSend(2, 0, 7)
	if s.Bytes(0, 1) != 150 || s.Ops(0, 1) != 2 {
		t.Fatalf("edge 0→1: %d bytes %d ops", s.Bytes(0, 1), s.Ops(0, 1))
	}
	if s.TotalBytes() != 157 || s.TotalOps() != 3 {
		t.Fatalf("totals %d/%d", s.TotalBytes(), s.TotalOps())
	}
}

func TestSelfSendIgnored(t *testing.T) {
	s := NewStats(2)
	s.RecordSend(1, 1, 999)
	if s.TotalBytes() != 0 || s.TotalOps() != 0 {
		t.Fatal("self-sends must not count")
	}
}

func TestMatrixCopy(t *testing.T) {
	s := NewStats(2)
	s.RecordSend(0, 1, 5)
	m := s.Matrix()
	m[0][1] = 999 // mutating the copy must not affect the stats
	if s.Bytes(0, 1) != 5 {
		t.Fatal("Matrix must return a copy")
	}
}

func TestTimeAccounting(t *testing.T) {
	s := NewStats(2)
	s.AddComp(0, 1.5)
	s.AddComp(1, 3.0)
	s.AddComm(0, 0.5)
	if s.CompSec(1) != 3.0 || s.CommSec(0) != 0.5 {
		t.Fatal("per-rank times")
	}
	if s.MaxCompSec() != 3.0 || s.MaxCommSec() != 0.5 {
		t.Fatal("maxima")
	}
	want := 0.5 / 3.5
	if got := s.CommRatio(); got != want {
		t.Fatalf("CommRatio=%v want %v", got, want)
	}
}

func TestCommRatioEmpty(t *testing.T) {
	if NewStats(1).CommRatio() != 0 {
		t.Fatal("empty ratio should be 0")
	}
}

func TestConcurrentRecording(t *testing.T) {
	s := NewStats(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.RecordSend(g%4, (g+1)%4, 1)
			}
		}(g)
	}
	wg.Wait()
	if s.TotalBytes() != 8000 {
		t.Fatalf("lost updates: %d", s.TotalBytes())
	}
}
