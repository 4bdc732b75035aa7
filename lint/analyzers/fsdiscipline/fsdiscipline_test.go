package fsdiscipline_test

import (
	"testing"

	"datasynth/lint/analysistest"
	"datasynth/lint/analyzers/fsdiscipline"
)

func TestFsDiscipline(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), fsdiscipline.Analyzer,
		"datasynth/internal/scenario",
		"datasynth/internal/service",
		"datasynth/internal/store",
		"datasynth/internal/table",
		"datasynth/internal/unrelated",
	)
}
