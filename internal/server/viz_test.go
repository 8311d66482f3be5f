package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"sor/internal/store"
	"sor/internal/wire"
	"sor/internal/world"
)

func TestChartsFromFeatureTable(t *testing.T) {
	s, _ := newTestServer(t)
	for place, vals := range map[string][]float64{
		world.TimHortons: {66, 1000},
		world.BNCafe:     {71, 400},
	} {
		for i, f := range []string{"temperature", "brightness"} {
			if err := s.DB().UpsertFeature(store.FeatureRow{
				Category: world.CategoryCoffee, Place: place, Feature: f, Value: vals[i],
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	charts, err := s.Charts(world.CategoryCoffee)
	if err != nil {
		t.Fatal(err)
	}
	if len(charts) != 2 {
		t.Fatalf("charts = %d", len(charts))
	}
	// Sorted by feature name: brightness first.
	if charts[0].Title != "brightness" || charts[1].Title != "temperature" {
		t.Fatalf("chart titles = %s, %s", charts[0].Title, charts[1].Title)
	}
	if charts[1].Unit != "°F" {
		t.Fatalf("temperature unit = %q", charts[1].Unit)
	}
	if len(charts[0].Categories) != 2 || charts[0].Categories[0] != world.BNCafe {
		t.Fatalf("categories = %v", charts[0].Categories)
	}
	// Values align with categories.
	if charts[0].Values[0] != 400 || charts[0].Values[1] != 1000 {
		t.Fatalf("brightness values = %v", charts[0].Values)
	}
	// Each chart renders.
	for _, c := range charts {
		svg, err := c.SVG(400, 300)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(svg, "<svg") {
			t.Fatal("bad svg")
		}
	}
	if _, err := s.Charts("empty-category"); err == nil {
		t.Fatal("empty category must error")
	}
}

func TestStartProcessingDrainsPeriodically(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, s, "alice", "tok-a", 6)
	if _, err := s.StartProcessing(context.Background(), 0); err == nil {
		t.Fatal("zero interval must error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done, err := s.StartProcessing(ctx, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	upload := &wire.DataUpload{
		TaskID: sched.TaskID, AppID: "app-sb", UserID: "alice",
		Series: []wire.SensorSeries{{
			Sensor: "temperature",
			Samples: []wire.SensorSample{
				{AtUnixMilli: t0.UnixMilli(), WindowMilli: 5000, Readings: []float64{70}},
			},
		}},
	}
	if _, err := s.Handler()(nil, upload); err != nil {
		t.Fatal(err)
	}
	// Poll for the feature row itself: DrainUploads empties the queue
	// before the fold writes the row, so an empty queue alone proves
	// nothing about the row.
	deadline := time.After(5 * time.Second)
	for {
		_, err := s.DB().Feature(world.CategoryCoffee, world.Starbucks, "temperature")
		if err == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("feature not produced: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if n := s.DB().PendingUploads(); n != 0 {
		t.Fatalf("processor left %d uploads pending", n)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("processing loop did not stop")
	}
}

func TestStartProcessingFinalDrainOnCancel(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.CreateApp(starbucksApp()); err != nil {
		t.Fatal(err)
	}
	sched := participate(t, s, "bob", "tok-b", 3)
	// Long interval: the tick will not fire before cancellation, so the
	// drain must happen on shutdown.
	ctx, cancel := context.WithCancel(context.Background())
	done, err := s.StartProcessing(ctx, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	upload := &wire.DataUpload{
		TaskID: sched.TaskID, AppID: "app-sb", UserID: "bob",
		Series: []wire.SensorSeries{{
			Sensor: "wifi",
			Samples: []wire.SensorSample{
				{AtUnixMilli: t0.UnixMilli(), WindowMilli: 1000, Readings: []float64{-60}},
			},
		}},
	}
	if _, err := s.Handler()(nil, upload); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("loop did not exit")
	}
	if s.DB().PendingUploads() != 0 {
		t.Fatal("final drain did not run")
	}
}
