package casvm_test

import (
	"fmt"
	"os"
	"path/filepath"

	"casvm"
)

// Train CA-SVM (RA-CA) on a small synthetic problem, classify, and round-trip
// the model file.
func ExampleTrain() {
	ds, err := casvm.GenerateDataset(casvm.MixtureSpec{
		Name: "demo", Train: 400, Test: 100, Features: 4, Clusters: 2,
		Separation: 8, Noise: 1, PosFrac: []float64{0.5}, Margin: 0.5, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	p := casvm.DefaultParams(casvm.MethodRACA, 4)
	p.Kernel = casvm.RBF(0.125)
	out, err := casvm.Train(ds.X, ds.Y, p)
	if err != nil {
		panic(err)
	}
	fmt.Println("models:", out.Set.P())
	fmt.Println("training network bytes:", out.Stats.CommBytes)
	fmt.Println("accuracy ≥ 0.9:", out.Set.Accuracy(ds.TestX, ds.TestY) >= 0.9)

	// A saved model set loads back as the model trained.
	dir, err := os.MkdirTemp("", "casvm-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo.model")
	if err := casvm.SaveModelSet(path, out.Set); err != nil {
		panic(err)
	}
	set, err := casvm.LoadModelSet(path)
	if err != nil {
		panic(err)
	}
	want, same := out.Set.PredictAll(ds.TestX), true
	for i, label := range set.PredictAll(ds.TestX) {
		same = same && label == want[i]
	}
	fmt.Println("reloaded predictions identical:", same)
	// Output:
	// models: 4
	// training network bytes: 0
	// accuracy ≥ 0.9: true
	// reloaded predictions identical: true
}

// Compare two methods on the same dataset.
func ExampleTrainDataset() {
	ds, entry, err := casvm.LoadDataset("toy", 0.5)
	if err != nil {
		panic(err)
	}
	for _, m := range []casvm.Method{casvm.MethodDisSMO, casvm.MethodRACA} {
		p := casvm.DefaultParams(m, 4)
		p.Kernel = casvm.RBF(entry.GammaOrDefault())
		out, _, err := casvm.TrainDataset(ds, p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s zero-comm: %v\n", m, out.Stats.CommBytes == 0)
	}
	// Output:
	// dissmo zero-comm: false
	// ra-ca zero-comm: true
}

// K-class problems reduce to independent binary CA-SVMs (§II-A).
func ExampleTrainMulticlass() {
	trainX, trainY, testX, testY, err := casvm.GenerateMulticlassDataset(casvm.MixtureSpec{
		Name: "mc", Train: 300, Test: 100, Features: 4, Clusters: 3,
		Separation: 9, Noise: 1, Seed: 3,
	}, 3)
	if err != nil {
		panic(err)
	}
	p := casvm.DefaultParams(casvm.MethodRACA, 2)
	p.Kernel = casvm.RBF(0.125)
	for _, s := range []struct {
		name   string
		scheme casvm.MulticlassScheme
	}{{"one-vs-rest", casvm.OneVsRest}, {"one-vs-one", casvm.OneVsOne}} {
		m, err := casvm.TrainMulticlass(trainX, trainY, p, s.scheme)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d binary machines, accuracy ≥ 0.9: %v\n",
			s.name, len(m.Sets), m.Accuracy(testX, testY) >= 0.9)
	}
	// Output:
	// one-vs-rest: 3 binary machines, accuracy ≥ 0.9: true
	// one-vs-one: 3 binary machines, accuracy ≥ 0.9: true
}

// All eight training methods head to head on one dataset, the shape of the
// paper's Tables XIII–XVIII: the three CA-SVM variants (bkm-ca, fcfs-ca,
// ra-ca) avoid the reduction tree, and ra-ca moves no bytes at all.
func Example_methodCompare() {
	ds, entry, err := casvm.LoadDataset("ijcnn", 0.25)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d samples, %d features, 8 nodes\n", ds.Name, ds.M(), ds.Features())
	for _, m := range casvm.Methods() {
		p := casvm.DefaultParams(m, 8)
		p.C = entry.C
		p.Kernel = casvm.RBF(entry.GammaOrDefault())
		out, acc, err := casvm.TrainDataset(ds, p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-9s accuracy %5.1f%%  iterations %5d  comm bytes %8d\n",
			m, 100*acc, out.Stats.Iters, out.Stats.CommBytes)
	}
	// Output:
	// ijcnn: 1500 samples, 22 features, 8 nodes
	// dissmo    accuracy  95.0%  iterations  1293  comm bytes  1908046
	// cascade   accuracy  95.3%  iterations  2040  comm bytes   222038
	// dcsvm     accuracy  95.3%  iterations  2767  comm bytes   650322
	// dcfilter  accuracy  94.3%  iterations  1841  comm bytes   510858
	// cpsvm     accuracy  97.7%  iterations   336  comm bytes   450515
	// bkm-ca    accuracy  97.7%  iterations   232  comm bytes   325436
	// fcfs-ca   accuracy  92.3%  iterations   222  comm bytes   158052
	// ra-ca     accuracy  86.3%  iterations   282  comm bytes        0
}

// Face detection with heavy class imbalance, the paper's Tables VI–IX:
// plain FCFS balances data volume but not load — the node that hoards the
// positives runs far more iterations — and ratio-balanced FCFS narrows the
// spread of positives per node, and with it the spread of iterations.
func Example_faceDetect() {
	ds, entry, err := casvm.LoadDataset("face", 1.0)
	if err != nil {
		panic(err)
	}
	for _, ratio := range []bool{false, true} {
		p := casvm.DefaultParams(casvm.MethodFCFSCA, 8)
		p.Kernel = casvm.RBF(entry.GammaOrDefault())
		p.RatioBalanced = ratio
		out, acc, err := casvm.TrainDataset(ds, p)
		if err != nil {
			panic(err)
		}
		label := "plain FCFS:         "
		if ratio {
			label = "ratio-balanced FCFS:"
		}
		lo, hi := span(out.Stats.NodePos)
		itLo, itHi := span(out.Stats.NodeIters)
		fmt.Printf("%s positives per node %d–%d, iterations per node %d–%d, accuracy %.1f%%\n",
			label, lo, hi, itLo, itHi, 100*acc)
	}
	// Output:
	// plain FCFS:          positives per node 4–125, iterations per node 127–458, accuracy 97.5%
	// ratio-balanced FCFS: positives per node 17–36, iterations per node 227–310, accuracy 92.8%
}

// The paper's partitioners on two blobs of very different size (Figs 4–6):
// plain K-means (CP-SVM) follows the blobs and is imbalanced, FCFS (Alg 3)
// and balanced K-means (Alg 5) cap every node at ⌈m/P⌉, and the random deal
// (RA-CA) is exactly even without computing a distance.
func Example_partitioning() {
	ds, err := casvm.GenerateDataset(casvm.MixtureSpec{
		Name: "walkthrough", Train: 240, Features: 2, Clusters: 2,
		Separation: 8, Noise: 0.8, PosFrac: []float64{0.5}, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	for _, m := range []casvm.Method{casvm.MethodCPSVM, casvm.MethodFCFSCA,
		casvm.MethodBKMCA, casvm.MethodRACA} {
		p := casvm.DefaultParams(m, 4)
		p.Kernel = casvm.RBF(0.25)
		out, _, err := casvm.TrainDataset(ds, p)
		if err != nil {
			panic(err)
		}
		lo, hi := span(out.Stats.PartSizes)
		fmt.Printf("%-8s partition sizes %v, spread %d\n", m, out.Stats.PartSizes, hi-lo)
	}
	// Output:
	// cpsvm    partition sizes [62 70 51 57], spread 19
	// fcfs-ca  partition sizes [60 58 61 61], spread 3
	// bkm-ca   partition sizes [60 58 61 61], spread 3
	// ra-ca    partition sizes [60 60 60 60], spread 0
}

// span returns the smallest and largest of counts.
func span(counts []int) (lo, hi int) {
	lo, hi = counts[0], counts[0]
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	return lo, hi
}
