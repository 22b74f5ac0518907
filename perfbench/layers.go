package main

// deviceLayers fills the device, ftl, nand, pcie, core and wal
// per-layer metrics of a measured phase. The 2B-SSD's block side
// reports under its profile name (ULL-SSD), a separate data device
// under data-*.
func deviceLayers(L map[string]float64, d *phase, ops float64) {
	L["device.log.write_cmds_per_op"] = d.c("ULL-SSD.write_cmds") / ops
	L["device.log.flush_cmds_per_op"] = d.c("ULL-SSD.flush_cmds") / ops
	L["device.log.write_cmd_p50_us"] = d.us("ULL-SSD.write_cmd_ns", 0.5)
	L["device.log.flush_p99_us"] = d.us("ULL-SSD.flush_ns", 0.99)
	L["device.data.read_cmd_p50_us"] = d.us("data-ULL-SSD.read_cmd_ns", 0.5)

	L["ftl.host_per_nand_write"] = ratio(d.c("ftl.host_page_writes"), d.c("ftl.nand_page_writes"))
	L["ftl.gc_relocations_per_op"] = d.c("ftl.gc_relocations") / ops
	L["ftl.gc_pause_p99_us"] = d.us("ftl.gc_pause_ns", 0.99)
	L["nand.programs_per_op"] = d.c("nand.page_programs") / ops
	L["nand.erases_per_op"] = d.c("nand.block_erases") / ops
	L["nand.program_p99_us"] = d.us("nand.program_ns", 0.99)
	L["nand.die_busy_frac"] = d.g("nand.die_busy_frac")

	L["pcie.mmio_writes_per_op"] = d.c("pcie.mmio_writes") / ops
	L["pcie.wc_evictions_per_op"] = d.c("pcie.wc_evictions") / ops
	L["pcie.write_verify_reads_per_op"] = d.c("pcie.write_verify_reads") / ops
	L["pcie.mmio_write_p50_us"] = d.us("pcie.mmio_write_ns", 0.5)
	L["pcie.sync_p50_us"] = d.us("pcie.sync_ns", 0.5)
	L["pcie.sync_p99_us"] = d.us("pcie.sync_ns", 0.99)

	L["core.pins_per_op"] = d.c("2bssd.pins") / ops
	L["core.pages_flushed_per_op"] = d.c("2bssd.pages_flushed") / ops
	L["core.flush_p50_us"] = d.us("2bssd.flush_ns", 0.5)
	L["core.gate_rejects"] = d.c("2bssd.gate_rejects")

	L["wal.commit_p50_us"] = d.us("wal.commit_ns", 0.5)
	L["wal.commit_p99_us"] = d.us("wal.commit_ns", 0.99)
	L["wal.commits_per_flush"] = ratio(d.c("wal.commits"), d.c("wal.flushes"))
	L["wal.pad_bytes_per_commit"] = ratio(d.c("wal.pad_bytes"), d.c("wal.commits"))
}
