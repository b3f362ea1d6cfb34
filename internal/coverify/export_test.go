package coverify

import "fmt"

// Report summarizes the regression run.
func (r *RTLRig) Report() string {
	return fmt.Sprintf("offered=%d checked=%d checkErrs=%d drops=%d hdlEvents=%d cycles=%d",
		r.Offered, r.Checked(), r.CheckErrors(), r.DUT.Drops(), r.HDL.Events(), r.ClockCycles())
}
