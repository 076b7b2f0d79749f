package a

import "testing"

func TestGauge(t *testing.T) { _ = counts.ByTest }
