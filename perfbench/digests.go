package main

import (
	"fmt"
	"runtime"
)

// storedDigests maps "workload/model version/GOARCH/seed" to the SHA-256 of
// the workload's renders (suiteRun.digest). A speed-only change must leave
// them identical. A seed, model version or architecture missing here (the
// compiler may fuse floating-point operations differently on another
// architecture) is judged by the paper shapes instead (shapeChecks). An
// entry is the "render digest" line a run prints.
var storedDigests = map[string]string{
	"repro-cold/2/amd64/0":      "2d42a7c454090626b72b3eb3611eac09889eb71be77c7609756c0a6d77240f9d",
	"fig7-paperloop/2/amd64/0":  "fc13cc2fdc6aad420e24199db8a7e93ddf480e5b1287d510a3ae254b9a6b40c4",
	"repro-cold/2/amd64/1":      "2d42a7c454090626b72b3eb3611eac09889eb71be77c7609756c0a6d77240f9d",
	"fig7-paperloop/2/amd64/1":  "fc13cc2fdc6aad420e24199db8a7e93ddf480e5b1287d510a3ae254b9a6b40c4",
	"repro-cold/2/amd64/2":      "5ff4796b8a4f0f1f1a7b3fd910840abd47d939ed86ba15821a3d18a62b278443",
	"fig7-paperloop/2/amd64/2":  "a386e101fba842ccfe5349235104889f2e0bc08ed4a4639723c4546d1c030611",
	"repro-cold/2/amd64/3":      "d49e805d33f3752ba37d95edf71ba3e36616a40ce20e6c92284cdcc3ab7ef7b0",
	"fig7-paperloop/2/amd64/3":  "ed085bd20f7245a460eed86a2b4cdcc7185d61553023ab0432969e4c7a50d0df",
	"repro-cold/2/amd64/4":      "097f57a8157931eea649ffbd7708ffc81d48e252df4ff59471228997ee3cbb67",
	"fig7-paperloop/2/amd64/4":  "0dae115f575710c9c1aba5bb730ce3ad2ddacfcf85bdf331f3625caa24a89273",
	"repro-cold/2/amd64/5":      "0c313ab6d0e6f81194f6eedc56e0c830e3f8f3712c4d072bf4ba59e42214a239",
	"fig7-paperloop/2/amd64/5":  "26e626c3630af9e317d0881bb317595413cd9003a5a3ae3b1f371dd3bb98efe9",
	"repro-cold/2/amd64/6":      "526b545364f9661004442aa1fe46071c7872123251d4ad599b2c1f65f044b962",
	"fig7-paperloop/2/amd64/6":  "a113532dec50d60abe170bd369ae300a624c3e029ee5fc4472bf00d661139636",
	"repro-cold/2/amd64/7":      "a72a639311a02277d2fc5a448369bc0408ab9521db2bdc7002645b5c2e63b5f9",
	"fig7-paperloop/2/amd64/7":  "d0c627c540bc581d7a89728afb101deda1f58832d7b66019e85e18da899525e0",
	"repro-cold/2/amd64/8":      "1cdbaa99cdd2418bd149439f68dac6a79541e2d9ae6943587b2e7c9dae90c964",
	"fig7-paperloop/2/amd64/8":  "8d39db7aec324eabff0eabd03f35badbfda14aff5822e7b6e7f8d430ce20e725",
	"repro-cold/2/amd64/9":      "f060978fc53f03edac3c4decff990a72ed6cdf8d9bfffb9d6420c99995c1d0a4",
	"fig7-paperloop/2/amd64/9":  "7bc51e78df5b1c024f00c20f167ca4973b15440731052e790ca56e7c16072a3f",
	"repro-cold/2/amd64/10":     "5d520773de6fe92e3f5881af81d985b9661544de3b8194d4bdb50684275dd99f",
	"fig7-paperloop/2/amd64/10": "9983bd5418656e317ae1f2caa4b06d6f09070d65b184ec4de476c0ad1f39f506",
}

func digestKey(workload string, modelVersion int, seed int64) string {
	return fmt.Sprintf("%s/%d/%s/%d", workload, modelVersion, runtime.GOARCH, seed)
}

func storedDigest(workload string, modelVersion int, seed int64) (string, bool) {
	d, ok := storedDigests[digestKey(workload, modelVersion, seed)]
	return d, ok
}
