package main

import "time"

// now reads the wall clock. Measuring wall time is this program's purpose,
// so every timing in it goes through here and since.
//
//dflvet:allow walltime the benchmark measures wall-clock latency by definition
func now() time.Time { return time.Now() }

// since is time.Since over now.
//
//dflvet:allow walltime the benchmark measures wall-clock latency by definition
func since(t time.Time) time.Duration { return now().Sub(t) }
