// Fleetstudy: the paper's deployment end to end — 25 instrumented phones,
// 14 months, logs collected over a local TCP collection server, analysed
// into the section 6 headline numbers.
package main

import (
	"fmt"

	"symfail"
	"symfail/internal/report"
)

func main() {
	cfg := symfail.DefaultFieldStudyConfig(2007)

	// Collect the Log Files over the network path, as the study's
	// automated transfer infrastructure did.
	study, srv, err := symfail.RunFieldStudyWithFleet(cfg)
	if err != nil {
		fmt.Println("study:", err)
		return
	}
	defer srv.Close()

	fmt.Printf("collected %d uploads from %d phones (%.0f phone-hours observed)\n\n",
		srv.Uploads(), len(study.Fleet.Devices), study.Fleet.ObservedHours())

	fmt.Println(report.MTBF(study.Study))
	fmt.Println(report.Figure2(study.Study))
	fmt.Println(report.Table2(study.Study))
}
