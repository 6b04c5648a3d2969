package main

// Example runs the program and pins its output.
func Example() {
	main()
	// Output:
	// tuned on 80 stops -> {"kind":"constrained","b":28,"stats":{"MuBMinus":6.832659024765898,"QBPlus":0.025}}
	// reloaded policy Proposed (B = 28 s), CR on week 1: 1.093
	//
	// drift detected on downtown day 1, stop 7 — re-tuning
	// re-tuned on 7 downtown stops -> {"kind":"constrained","b":28,"stats":{"MuBMinus":7.253733304505615,"QBPlus":0.42857142857142855}}
	// old policy played DET; new policy plays TOI
}
