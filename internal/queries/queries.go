package queries

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"aurochs/internal/ml"
)

// The nine ridesharing queries of fig. 13, planned over the Engine
// operators. Each returns a QueryResult whose fingerprint is engine-
// independent; the integration tests run every query on all three engines
// and require identical fingerprints.

// Query is one benchmark query.
type Query struct {
	Name string
	Desc string
	Run  func(e Engine, d *Dataset) (QueryResult, error)
}

// All returns the benchmark set in order.
func All() []Query {
	return []Query{
		{"q1", "available drivers within 1 km of each recent request, seat-matched, per driver", Q1},
		{"q2", "ride demand in one zone per 10-minute interval, ordered", Q2},
		{"q3", "last-minute demand per zone, ordered by count", Q3},
		{"q4", "recent rider activity in one zone with per-rider aggregates", Q4},
		{"q5", "windowed driver telemetry features + linear model score", Q5},
		{"q6", "demand/supply imbalance per zone + surge model", Q6},
		{"q7", "30-day rider history features + logistic churn model", Q7},
		{"q8", "zone rider segmentation via k-means over ride aggregates", Q8},
		{"q9", "nearest 100 available drivers to one request, by distance", Q9},
	}
}

// dispatchOrder is the order RunAll's goroutines take the queries in, as
// indices into All(): longest first, ranked by simulated cycles on the
// fabric engine. At SmallScale (the mean of seeds 1, 7, 2, 3 and 90003)
// those are q7 22,918, q1 18,156, q6 5,017, q8 3,290, q5 2,591, q4 1,774,
// q3 854, q2 819 and q9 521; at BenchScale q1 leads q7, and q5 and q8 are
// within 8% of each other. So the two heavy queries start together and
// the short ones fill the other workers, instead of q7 starting after
// q2–q6 and running alone at the end.
var dispatchOrder = [...]int{0, 6, 5, 7, 4, 3, 2, 1, 8}

// statusPoints converts driver status reports to spatial points (ID =
// row index).
func statusPoints(d *Dataset) []Point {
	pts := make([]Point, len(d.DriverStatus))
	for i, s := range d.DriverStatus {
		pts[i] = Point{X: s.X, Y: s.Y, ID: uint32(i)}
	}
	return pts
}

// reqPoints converts ride requests to spatial points (ID = row index).
func reqPoints(d *Dataset) []Point {
	pts := make([]Point, len(d.RideReqs))
	for i, r := range d.RideReqs {
		pts[i] = Point{X: r.X, Y: r.Y, ID: uint32(i)}
	}
	return pts
}

// ridePoints converts rides' start positions to points (ID = row index).
func ridePoints(d *Dataset) []Point {
	pts := make([]Point, len(d.Rides))
	for i, r := range d.Rides {
		pts[i] = Point{X: r.StartX, Y: r.StartY, ID: uint32(i)}
	}
	return pts
}

// locationRects converts zones to window queries tagged by location id.
func locationRects(d *Dataset) []RectQ {
	qs := make([]RectQ, len(d.Locations))
	for i, l := range d.Locations {
		qs[i] = RectQ{MinX: l.MinX, MinY: l.MinY, MaxX: l.MaxX, MaxY: l.MaxY, Tag: l.LocationID}
	}
	return qs
}

// Q1: SELECT COUNT(*) FROM rideReq req JOIN driverStatus ds ON
// GEO.DIST(ds.pos, req.start, 1 km) JOIN driver d ON d.driverId =
// ds.driverId WHERE req.seats = d.seats AND ds.time >= NOW - 5 days
// GROUP BY ds.driverId.
func Q1(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q1"}

	// Recent driver status via the time index.
	times := make([]KV, len(d.DriverStatus))
	for i, s := range d.DriverStatus {
		times[i] = KV{Key: s.Time, Val: uint32(i)}
	}
	recent, c, err := e.TimeRange(times, d.Now-5*Day, d.Now)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	recentSet := make(map[uint32]bool, len(recent))
	for _, idx := range recent {
		recentSet[idx] = true
	}

	// Drivers within 1 km of each request.
	circles := make([]CircleQ, len(d.RideReqs))
	for i, r := range d.RideReqs {
		circles[i] = CircleQ{X: r.X, Y: r.Y, R: KM, Tag: uint32(i)}
	}
	pairs, c, err := e.SpatialProbe(statusPoints(d), circles)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)

	// Join driver attributes (driverId → seats).
	statusKV := make([]KV, 0, len(pairs))
	for i, p := range pairs {
		if recentSet[p.ID] {
			statusKV = append(statusKV, KV{Key: d.DriverStatus[p.ID].DriverID, Val: uint32(i)})
		}
	}
	driverKV := make([]KV, len(d.Drivers))
	for i, dr := range d.Drivers {
		driverKV[i] = KV{Key: dr.DriverID, Val: uint32(i)}
	}
	joined, c, err := e.EquiJoin(driverKV, statusKV)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)

	// Seat filter + group by driver.
	var grpKeys []uint32
	for _, j := range joined {
		pr := pairs[j.ProbeVal]
		req := d.RideReqs[pr.Tag]
		if d.Drivers[j.BuildVal].Seats == req.Seats {
			grpKeys = append(grpKeys, d.Drivers[j.BuildVal].DriverID)
		}
	}
	counts, c, err := e.GroupCount(grpKeys)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)

	for k, n := range counts {
		mix(&res.Fingerprint, uint64(k), uint64(n))
	}
	res.Rows = len(counts)
	return res, nil
}

// zoneContaining returns the zone holding (x, y); zones tile the grid.
func zoneContaining(d *Dataset, x, y uint32) Location {
	for _, l := range d.Locations {
		if x >= l.MinX && x <= l.MaxX && y >= l.MinY && y <= l.MaxY {
			return l
		}
	}
	return d.Locations[0]
}

// Q2: demand in one zone per 10-minute interval, ordered by count. The
// query's WHERE locationId = <const> picks the zone of the first request
// (a zone guaranteed to be live under the clustered generator).
func Q2(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q2"}
	loc := zoneContaining(d, d.RideReqs[0].X, d.RideReqs[0].Y)
	hits, c, err := e.WindowProbe(reqPoints(d), []RectQ{{MinX: loc.MinX, MinY: loc.MinY, MaxX: loc.MaxX, MaxY: loc.MaxY, Tag: 0}})
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	intervals := make([]uint32, len(hits))
	for i, h := range hits {
		intervals[i] = d.RideReqs[h.ID].Time / 600
	}
	counts, c, err := e.GroupCount(intervals)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	c, err = e.Sort(len(counts), 8)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	for k, n := range counts {
		mix(&res.Fingerprint, uint64(k), uint64(n))
	}
	res.Rows = len(counts)
	return res, nil
}

// Q3: demand per zone over the last minute, ordered by count.
func Q3(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q3"}
	times := make([]KV, len(d.RideReqs))
	for i, r := range d.RideReqs {
		times[i] = KV{Key: r.Time, Val: uint32(i)}
	}
	recent, c, err := e.TimeRange(times, d.Now-60, d.Now)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	pts := make([]Point, len(recent))
	for i, idx := range recent {
		r := d.RideReqs[idx]
		pts[i] = Point{X: r.X, Y: r.Y, ID: idx}
	}
	hits, c, err := e.WindowProbe(pts, locationRects(d))
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	locs := make([]uint32, len(hits))
	for i, h := range hits {
		locs[i] = h.Tag
	}
	counts, c, err := e.GroupCount(locs)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	c, err = e.Sort(len(counts), 8)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	for k, n := range counts {
		mix(&res.Fingerprint, uint64(k), uint64(n))
	}
	res.Rows = len(counts)
	return res, nil
}

// Q4: riders active in zone 0 over the last 5 days, with per-rider ride
// count and average fare.
func Q4(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q4"}
	times := make([]KV, len(d.Rides))
	for i, r := range d.Rides {
		times[i] = KV{Key: r.StartTime, Val: uint32(i)}
	}
	recent, c, err := e.TimeRange(times, d.Now-5*Day, d.Now)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	pts := make([]Point, len(recent))
	for i, idx := range recent {
		r := d.Rides[idx]
		pts[i] = Point{X: r.StartX, Y: r.StartY, ID: idx}
	}
	loc := zoneContaining(d, d.Rides[0].StartX, d.Rides[0].StartY)
	hits, c, err := e.WindowProbe(pts, []RectQ{{MinX: loc.MinX, MinY: loc.MinY, MaxX: loc.MaxX, MaxY: loc.MaxY, Tag: 0}})
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	riders := make([]uint32, len(hits))
	fares := make(map[uint32]uint64)
	for i, h := range hits {
		r := d.Rides[h.ID]
		riders[i] = r.RiderID
		fares[r.RiderID] += uint64(r.Fare)
	}
	counts, c, err := e.GroupCount(riders)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	for rider, n := range counts {
		avg := fares[rider] / uint64(n)
		mix(&res.Fingerprint, uint64(rider), uint64(n), avg)
	}
	res.Rows = len(counts)
	return res, nil
}

// q5Model is the shared linear model of Q5/Q6 (synthetic weights).
func q5Model(width int) *ml.Linear {
	w := make([]float32, width)
	for i := range w {
		w[i] = float32(i%5) * 0.1
	}
	return &ml.Linear{Weights: w, Bias: 0.25}
}

// Q5: join driver status to driver attributes, compute windowed features
// per driver, score with a linear model.
func Q5(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q5"}
	statusKV := make([]KV, len(d.DriverStatus))
	for i, s := range d.DriverStatus {
		statusKV[i] = KV{Key: s.DriverID, Val: uint32(i)}
	}
	driverKV := make([]KV, len(d.Drivers))
	for i, dr := range d.Drivers {
		driverKV[i] = KV{Key: dr.DriverID, Val: uint32(i)}
	}
	joined, c, err := e.EquiJoin(driverKV, statusKV)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	// Window: PARTITION BY driver ORDER BY time — a sort of the joined
	// stream, then streaming aggregates.
	c, err = e.Sort(len(joined), 16)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	type agg struct {
		n          int64
		sumX, sumY uint64
		free       int64
	}
	aggs := make(map[uint32]*agg)
	for _, j := range joined {
		s := d.DriverStatus[j.ProbeVal]
		a := aggs[j.Key]
		if a == nil {
			a = &agg{}
			aggs[j.Key] = a
		}
		a.n++
		a.sumX += uint64(s.X)
		a.sumY += uint64(s.Y)
		a.free += int64(s.Free)
	}
	model := q5Model(4)
	c, err = e.Predict(len(aggs), model.FlopsPerPredict())
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	for id, a := range aggs {
		feats := []float32{
			float32(a.sumX/uint64(a.n)) / MaxCoord,
			float32(a.sumY/uint64(a.n)) / MaxCoord,
			float32(a.free) / float32(a.n),
			float32(a.n) / 64,
		}
		score := model.Predict(feats)
		mix(&res.Fingerprint, uint64(id), uint64(a.n), uint64(int64(score*1000)))
	}
	res.Rows = len(aggs)
	return res, nil
}

// Q6: demand and supply per zone, joined, scored with a surge model.
func Q6(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q6"}
	rects := locationRects(d)
	demandHits, c, err := e.WindowProbe(reqPoints(d), rects)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	supplyHits, c, err := e.WindowProbe(statusPoints(d), rects)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	dk := make([]uint32, len(demandHits))
	for i, h := range demandHits {
		dk[i] = h.Tag
	}
	sk := make([]uint32, len(supplyHits))
	for i, h := range supplyHits {
		sk[i] = h.Tag
	}
	demand, c, err := e.GroupCount(dk)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	supply, c, err := e.GroupCount(sk)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	// Join demand and supply on locationId. Both sides come from map
	// ranges; sorting them by key keeps the join's simulated cost
	// independent of Go's map iteration order.
	dkv := make([]KV, 0, len(demand))
	for k, n := range demand {
		dkv = append(dkv, KV{Key: k, Val: uint32(n)})
	}
	skv := make([]KV, 0, len(supply))
	for k, n := range supply {
		skv = append(skv, KV{Key: k, Val: uint32(n)})
	}
	sort.Slice(dkv, func(i, j int) bool { return dkv[i].Key < dkv[j].Key })
	sort.Slice(skv, func(i, j int) bool { return skv[i].Key < skv[j].Key })
	joined, c, err := e.EquiJoin(dkv, skv)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	model := q5Model(2)
	c, err = e.Predict(len(joined), model.FlopsPerPredict())
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	for _, j := range joined {
		score := model.Predict([]float32{float32(j.BuildVal) / 100, float32(j.ProbeVal) / 100})
		mix(&res.Fingerprint, uint64(j.Key), uint64(j.BuildVal), uint64(j.ProbeVal), uint64(int64(score*1000)))
	}
	res.Rows = len(joined)
	return res, nil
}

// Q7: 30-day rider history joined to rider and driver attributes, logistic
// model per rider.
func Q7(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q7"}
	times := make([]KV, len(d.Rides))
	for i, r := range d.Rides {
		times[i] = KV{Key: r.StartTime, Val: uint32(i)}
	}
	recent, c, err := e.TimeRange(times, d.Now-30*Day, d.Now)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	rideKV := make([]KV, len(recent))
	for i, idx := range recent {
		rideKV[i] = KV{Key: d.Rides[idx].RiderID, Val: idx}
	}
	riderKV := make([]KV, len(d.Riders))
	for i, r := range d.Riders {
		riderKV[i] = KV{Key: r.RiderID, Val: uint32(i)}
	}
	joined, c, err := e.EquiJoin(riderKV, rideKV)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	// Second join: ride → driver rating.
	drKV := make([]KV, len(joined))
	for i, j := range joined {
		drKV[i] = KV{Key: d.Rides[j.ProbeVal].DriverID, Val: uint32(i)}
	}
	driverKV := make([]KV, len(d.Drivers))
	for i, dr := range d.Drivers {
		driverKV[i] = KV{Key: dr.DriverID, Val: uint32(i)}
	}
	joined2, c, err := e.EquiJoin(driverKV, drKV)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	type agg struct {
		n, fare, drRating uint64
	}
	aggs := make(map[uint32]*agg)
	for _, j2 := range joined2 {
		j := joined[j2.ProbeVal]
		ride := d.Rides[j.ProbeVal]
		a := aggs[ride.RiderID]
		if a == nil {
			a = &agg{}
			aggs[ride.RiderID] = a
		}
		a.n++
		a.fare += uint64(ride.Fare)
		a.drRating += uint64(d.Drivers[j2.BuildVal].Rating)
	}
	model := &ml.Logistic{Linear: *q5Model(3)}
	c, err = e.Predict(len(aggs), model.FlopsPerPredict())
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	for rider, a := range aggs {
		churn := model.Predict([]float32{
			float32(a.n) / 32,
			float32(a.fare/a.n) / 5000,
			float32(a.drRating/a.n) / 500,
		})
		v := uint64(0)
		if churn {
			v = 1
		}
		mix(&res.Fingerprint, uint64(rider), uint64(a.n), v)
	}
	res.Rows = len(aggs)
	return res, nil
}

// Q8: per-rider aggregates over rides starting in zone 0, segmented with
// k-means.
func Q8(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q8"}
	loc := zoneContaining(d, d.Rides[0].StartX, d.Rides[0].StartY)
	hits, c, err := e.WindowProbe(ridePoints(d), []RectQ{{MinX: loc.MinX, MinY: loc.MinY, MaxX: loc.MaxX, MaxY: loc.MaxY, Tag: 0}})
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	rideKV := make([]KV, len(hits))
	for i, h := range hits {
		rideKV[i] = KV{Key: d.Rides[h.ID].RiderID, Val: h.ID}
	}
	riderKV := make([]KV, len(d.Riders))
	for i, r := range d.Riders {
		riderKV[i] = KV{Key: r.RiderID, Val: uint32(i)}
	}
	joined, c, err := e.EquiJoin(riderKV, rideKV)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	type agg struct {
		n, fare, dur uint64
	}
	aggs := make(map[uint32]*agg)
	for _, j := range joined {
		ride := d.Rides[j.ProbeVal]
		a := aggs[ride.RiderID]
		if a == nil {
			a = &agg{}
			aggs[ride.RiderID] = a
		}
		a.n++
		a.fare += uint64(ride.Fare)
		a.dur += uint64(ride.Duration)
	}
	km := &ml.KMeans{Centroids: [][]float32{
		{0.2, 0.2}, {0.5, 0.5}, {0.8, 0.8},
	}}
	c, err = e.Predict(len(aggs), km.FlopsPerAssign())
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	for rider, a := range aggs {
		cl := km.Assign([]float32{
			float32(a.fare/a.n) / 6000,
			float32(a.dur/a.n) / 3600,
		})
		mix(&res.Fingerprint, uint64(rider), uint64(a.n), uint64(cl))
	}
	res.Rows = len(aggs)
	return res, nil
}

// Q9: the 100 nearest available drivers to request 0, ordered by distance.
func Q9(e Engine, d *Dataset) (QueryResult, error) {
	res := QueryResult{Engine: e.Name(), Query: "q9"}
	req := d.RideReqs[0]
	hits, c, err := e.SpatialProbe(statusPoints(d), []CircleQ{{X: req.X, Y: req.Y, R: KM, Tag: 0}})
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	type cand struct {
		idx  uint32
		dist int64
	}
	var cands []cand
	for _, h := range hits {
		s := d.DriverStatus[h.ID]
		if s.Free == 0 {
			continue
		}
		dx := int64(s.X) - int64(req.X)
		dy := int64(s.Y) - int64(req.Y)
		cands = append(cands, cand{idx: h.ID, dist: dx*dx + dy*dy})
	}
	c, err = e.Sort(len(cands), 12)
	if err != nil {
		return res, err
	}
	res.Cost.Add(c)
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].idx < cands[j].idx
	})
	if len(cands) > 100 {
		cands = cands[:100]
	}
	for _, cd := range cands {
		mix(&res.Fingerprint, uint64(cd.idx), uint64(cd.dist))
	}
	res.Rows = len(cands)
	return res, nil
}

// workersFor is how many goroutines RunAll runs n queries on for e.
func workersFor(e Engine, n int) int {
	switch e.(type) {
	case *CPUEngine, *GPUEngine:
		return 1
	}
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// RunAll executes the full set on one engine and returns the results in
// All() order. On an error it returns the results of the queries before the
// first failing one, plus that query's wrapped error.
//
// The queries are independent, so RunAll runs them on up to GOMAXPROCS
// goroutines, each taking the next query in dispatchOrder (longest first)
// and writing its result at the query's All() index: the engine's
// operators may be called from several goroutines at once. Two engines keep
// the serial loop in All() order: the CPU engine, whose cost is host
// wall-clock time that a concurrent query would inflate, and the GPU
// engine, whose operators write its LastBuildEff/LastProbeEff fields.
func RunAll(e Engine, d *Dataset) ([]QueryResult, error) {
	qs := All()
	workers := workersFor(e, len(qs))
	res := make([]QueryResult, len(qs))
	errs := make([]error, len(qs))
	if workers == 1 {
		for i, q := range qs {
			if res[i], errs[i] = q.Run(e, d); errs[i] != nil {
				break
			}
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(qs); k = int(next.Add(1)) - 1 {
					i := dispatchOrder[k]
					res[i], errs[i] = qs[i].Run(e, d)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			// append to nil keeps the serial loop's nil for no results.
			return append([]QueryResult(nil), res[:i]...), fmt.Errorf("%s on %s: %w", qs[i].Name, e.Name(), err)
		}
	}
	return res, nil
}
