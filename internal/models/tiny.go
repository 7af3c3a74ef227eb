package models

import (
	"fmt"

	"tpusim/internal/fixed"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// Tiny returns a miniature, structurally faithful variant of a Table 1
// benchmark: same class, same operation mix and nonlinearities, dimensions
// small enough to run full functional (float and quantized) inference in a
// test or example. The full-size models are for the timing simulator; these
// are for end-to-end numerical validation.
func Tiny(name string) (*nn.Model, error) {
	switch name {
	case "MLP0":
		m := &nn.Model{Name: "MLP0-tiny", Class: nn.MLP, Batch: 8, TimeSteps: 1}
		for i := 0; i < 5; i++ {
			m.Layers = append(m.Layers, nn.Layer{
				Name: fmt.Sprintf("fc%d", i), Kind: nn.FC, In: 24, Out: 24, Act: fixed.ReLU,
			})
		}
		return m, nil
	case "MLP1":
		m := &nn.Model{Name: "MLP1-tiny", Class: nn.MLP, Batch: 8, TimeSteps: 1}
		for i := 0; i < 4; i++ {
			m.Layers = append(m.Layers, nn.Layer{
				Name: fmt.Sprintf("fc%d", i), Kind: nn.FC, In: 16, Out: 16, Act: fixed.ReLU,
			})
		}
		return m, nil
	case "LSTM0", "LSTM1":
		m := &nn.Model{Name: name + "-tiny", Class: nn.LSTM, Batch: 4, TimeSteps: 2}
		for g := 0; g < 3; g++ {
			act := fixed.Sigmoid
			if g%2 == 1 {
				act = fixed.Tanh
			}
			m.Layers = append(m.Layers,
				nn.Layer{Name: fmt.Sprintf("gate%d", g), Kind: nn.FC, In: 12, Out: 12, Act: act},
				nn.Layer{Name: fmt.Sprintf("vec%d", g), Kind: nn.Vector, Width: 12,
					VOp: nn.VecScale, Act: fixed.Tanh},
			)
		}
		return m, nil
	case "CNN0":
		m := &nn.Model{Name: "CNN0-tiny", Class: nn.CNN, Batch: 2, TimeSteps: 1}
		cin := 2
		for i := 0; i < 3; i++ {
			cout := 4
			m.Layers = append(m.Layers, nn.Layer{
				Name: fmt.Sprintf("conv%d", i), Kind: nn.Conv,
				Conv: tensor.Conv2DShape{H: 8, W: 8, Cin: cin, K: 3, S: 1, Cout: cout},
				Act:  fixed.ReLU,
			})
			cin = cout
		}
		return m, nil
	case "CNN1":
		m := &nn.Model{Name: "CNN1-tiny", Class: nn.CNN, Batch: 2, TimeSteps: 1}
		cin := 2
		// The last conv's flattened output stride (OH*OW*Cout = 36*64)
		// must be 256-byte divisible for the conv->FC transition, the same
		// property full-size CNN1 has (361*256).
		for i, cout := range []int{3, 64} {
			m.Layers = append(m.Layers, nn.Layer{
				Name: fmt.Sprintf("conv%d", i), Kind: nn.Conv,
				Conv: tensor.Conv2DShape{H: 6, W: 6, Cin: cin, K: 3, S: 1, Cout: cout},
				Act:  fixed.ReLU,
			})
			cin = cout
		}
		m.Layers = append(m.Layers,
			nn.Layer{Name: "fc0", Kind: nn.FC, In: 6 * 6 * cin, Out: 10, Act: fixed.ReLU},
			nn.Layer{Name: "vec0", Kind: nn.Vector, Width: 10, VOp: nn.VecBias, Act: fixed.ReLU},
			nn.Layer{Name: "fc1", Kind: nn.FC, In: 10, Out: 10, Act: fixed.Identity},
		)
		return m, nil
	default:
		return nil, fmt.Errorf("models: unknown benchmark %q", name)
	}
}
