package mpi_test

import (
	"context"
	"fmt"

	"pamg2d/internal/mpi"
)

// ExampleComm_Send collects one value from every rank at the root over
// point-to-point messages, the pattern the paper uses to gather
// boundary-layer coordinates.
func ExampleComm_Send() {
	world := mpi.NewWorld(4)
	err := world.RunCtx(context.Background(), func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, 1, []byte{byte(c.Rank() * 10)})
		}
		sum := 0
		for r := 1; r < c.Size(); r++ {
			p, _, _, err := c.Recv(context.Background(), r, 1)
			if err != nil {
				return err
			}
			sum += int(p[0])
		}
		fmt.Println("sum at root:", sum)
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// sum at root: 60
}

// ExampleWindow shows the one-sided RMA window that backs the paper's
// load-balancing work-estimate table.
func ExampleWindow() {
	world := mpi.NewWorld(3)
	win := world.NewWindow(3)
	err := world.RunCtx(context.Background(), func(c *mpi.Comm) error {
		win.Put(c.Rank(), float64(c.Rank()+1)) // publish a work estimate
		if c.Rank() != 0 {
			return c.Send(0, 1, nil) // report the Put to the root
		}
		for r := 1; r < c.Size(); r++ {
			if _, _, _, err := c.Recv(context.Background(), r, 1); err != nil {
				return err
			}
		}
		loads := win.Get()
		best, bestLoad := -1, 0.0
		for r, l := range loads {
			if l > bestLoad {
				best, bestLoad = r, l
			}
		}
		fmt.Printf("steal from rank %d (load %.0f)\n", best, bestLoad)
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// steal from rank 2 (load 3)
}
