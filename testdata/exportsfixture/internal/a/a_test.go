package a

import "testing"

func TestGauge(t *testing.T) { _ = mByTest }
