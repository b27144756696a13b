// Hit cases: bare device ops on the real gpusim.Device type outside
// package gpusim.
package kernels

import (
	"os"

	"gpapriori/internal/gpusim"
)

func bareOps(dev *gpusim.Device, buf gpusim.Buffer, data []uint32) {
	dev.CopyToDevice(buf, data)                                                   // want `bare gpusim.Device.CopyToDevice on a fault-aware path: use TryCopyToDevice`
	dev.Launch(gpusim.LaunchConfig{Grid: 1, Block: 32}, func(ctx *gpusim.Ctx) {}) // want `bare gpusim.Device.Launch on a fault-aware path: use TryLaunch`
	out := make([]uint32, 4)
	dev.CopyFromDevice(out, buf) // want `bare gpusim.Device.CopyFromDevice on a fault-aware path: use TryCopyFromDevice`
}

func sanctionedOps(dev *gpusim.Device, buf gpusim.Buffer, data []uint32) error {
	if err := dev.TryCopyToDevice(buf, data); err != nil {
		return err
	}
	if _, err := dev.TryLaunch(gpusim.LaunchConfig{Grid: 1, Block: 32}, 0, func(ctx *gpusim.Ctx) {}); err != nil {
		return err
	}
	out := make([]uint32, 4)
	return dev.TryCopyFromDevice(out, buf)
}

// diskOpsOutOfScope proves the durability fence applies only to the
// durability packages — "kernels" may rename and fsync directly.
func diskOpsOutOfScope(f *os.File, path string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// nonDeviceLaunch proves the check keys on the receiver type, not the
// method name.
type launcher struct{}

func (launcher) Launch()               {}
func (launcher) CopyToDevice(any, any) {}
func nameCollision(l launcher) {
	l.Launch()
	l.CopyToDevice(nil, nil)
}
