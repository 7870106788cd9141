// Command demo is the one entry point of the module that the reachability
// scan's own test runs on.
package main

import (
	"errors"
	"fmt"

	"reachdemo/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Describe(lib.Real{}))
	fmt.Println(errors.Is(lib.Wrap(errors.ErrUnsupported), errors.ErrUnsupported))
}
