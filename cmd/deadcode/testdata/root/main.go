package main

import "fixture/internal/lib"

func main() {
	var d lib.Doer = lib.Impl{}
	d.Do()
}
