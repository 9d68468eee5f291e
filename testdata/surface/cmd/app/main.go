package main

import (
	"fmt"
	"time"

	"fixture/internal/lib"
)

func main() {
	var o lib.Options
	o.Wait = time.Second
	fmt.Println(lib.Run(o).N)
}
