package repository

import (
	"testing"

	"bitdew/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
