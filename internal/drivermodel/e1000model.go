package drivermodel

import (
	"fmt"

	"decafdrivers/internal/slicer"
)

// E1000 case-study ground truth (§5.1): the conversion rewrote 92 functions
// to checked exceptions, found 28 ignored-or-misrouted error returns, and
// removed 675 lines (~8% of e1000_hw.c) of check-and-return idiom.
const (
	// E1000FunctionsWithErrorSites is the number of functions carrying
	// integer-error-return call sites (the 92 rewritten functions).
	E1000FunctionsWithErrorSites = 92
	// E1000ErrorCheckLines is the total source lines occupied by the
	// check-and-return idiom (the lines exception conversion removes).
	E1000ErrorCheckLines = 675
	// E1000DefectiveSites is the number of ignored or incorrectly handled
	// error returns planted in the model (the paper's 28 cases).
	E1000DefectiveSites = 28
	// E1000HWFileLoC is the total size of e1000_hw.c, the denominator of
	// the "approximately 8%" claim.
	E1000HWFileLoC = 8437
)

// E1000 builds the E1000 IR: 46 nucleus (42 reachable + 4 pinned over an
// ethtool data race) / 0 library / 236 decaf functions, 64 annotations.
func E1000() *slicer.Driver {
	b := newBuilder("e1000", "Network", 14204)

	// --- nucleus: the data path, reachable from the critical roots ---
	nucleusSeeds := []string{
		"e1000_intr", "e1000_xmit_frame", "e1000_clean",
		"e1000_clean_tx_irq", "e1000_clean_rx_irq", "e1000_alloc_rx_buffers",
		"e1000_tx_map", "e1000_tx_queue", "e1000_rx_checksum",
		"e1000_receive_skb", "e1000_unmap_and_free_tx_resource",
		"e1000_tx_timeout", "e1000_smartspeed", "e1000_82547_tx_fifo_stall",
		"e1000_update_stats_kernel", "e1000_irq_disable", "e1000_irq_enable",
		"e1000_maybe_stop_tx", "e1000_transfer_dhcp_info", "e1000_tso",
		"e1000_tx_csum", "e1000_clean_tx_ring_kernel", "e1000_clean_rx_ring_kernel",
	}
	nucleus := b.cluster("e1000_main.c", names("e1000_dpath", nucleusSeeds, 42), 1555, nil)
	b.chainCalls(nucleus)
	// Roots call into the tree heads.
	b.d.Funcs["e1000_intr"].Calls = append(b.d.Funcs["e1000_intr"].Calls, "e1000_clean")
	b.d.Funcs["e1000_xmit_frame"].Calls = append(b.d.Funcs["e1000_xmit_frame"].Calls,
		"e1000_tx_map", "e1000_tx_queue")

	// The four ethtool functions pinned over the explicit data race (§5):
	// "These functions, in the ethtool interface, wait for an interrupt to
	// fire and change a variable."
	b.cluster("e1000_ethtool.c", []string{
		"e1000_intr_test", "e1000_loopback_test", "e1000_link_test",
		"e1000_diag_test_wait",
	}, 160, func(i int, f *slicer.Function) {
		f.ForceKernel = true
		f.Reason = "waits for the interrupt handler to change a variable in the driver nucleus; " +
			"the decaf copy would never see the write (explicit data race)"
	})

	// --- decaf driver: 236 converted functions across four files ---
	mainSeeds := []string{
		"e1000_probe", "e1000_remove", "e1000_open", "e1000_close",
		"e1000_up", "e1000_down", "e1000_reset", "e1000_set_mac",
		"e1000_setup_all_tx_resources", "e1000_setup_all_rx_resources",
		"e1000_free_all_tx_resources", "e1000_free_all_rx_resources",
		"e1000_request_irq", "e1000_power_up_phy", "e1000_power_down_phy",
		"e1000_watchdog", "e1000_update_stats", "e1000_set_multi",
		"e1000_change_mtu", "e1000_suspend", "e1000_resume",
		"e1000_init_module", "e1000_exit_module", "e1000_sw_init",
	}
	mainDecaf := b.cluster("e1000_main.c", names("e1000_mgmt", mainSeeds, 60), 2300,
		func(i int, f *slicer.Function) { f.ConvertedToJava = true })
	b.chainCalls(mainDecaf)

	hwSeeds := []string{
		"e1000_reset_hw", "e1000_init_hw", "e1000_read_eeprom",
		"e1000_write_eeprom", "e1000_validate_eeprom_checksum",
		"e1000_read_mac_addr", "e1000_read_phy_reg", "e1000_write_phy_reg",
		"e1000_phy_reset", "e1000_phy_get_info", "e1000_detect_gig_phy",
		"e1000_config_dsp_after_link_change", "e1000_setup_link",
		"e1000_setup_copper_link", "e1000_setup_fiber_serdes_link",
		"e1000_config_fc_after_link_up", "e1000_check_for_link",
		"e1000_get_speed_and_duplex", "e1000_wait_autoneg",
		"e1000_phy_setup_autoneg", "e1000_phy_force_speed_duplex",
		"e1000_copper_link_preconfig", "e1000_copper_link_mgp_setup",
		"e1000_copper_link_igp_setup", "e1000_copper_link_autoneg",
		"e1000_id_led_init", "e1000_setup_led", "e1000_cleanup_led",
		"e1000_led_on", "e1000_led_off", "e1000_clear_hw_cntrs",
		"e1000_get_bus_info", "e1000_write_vfta", "e1000_clear_vfta",
		"e1000_mta_set", "e1000_rar_set", "e1000_hash_mc_addr",
	}
	hwDecaf := b.cluster("e1000_hw.c", names("e1000_hw", hwSeeds, 140), 4800,
		func(i int, f *slicer.Function) { f.ConvertedToJava = true })
	b.chainCalls(hwDecaf)

	paramDecaf := b.cluster("e1000_param.c", names("e1000_param", []string{
		"e1000_check_options", "e1000_validate_option",
	}, 12), 450, func(i int, f *slicer.Function) { f.ConvertedToJava = true })
	b.chainCalls(paramDecaf)

	ethtoolDecaf := b.cluster("e1000_ethtool.c", names("e1000_ethtool", []string{
		"e1000_get_settings", "e1000_set_settings", "e1000_get_drvinfo",
		"e1000_get_regs", "e1000_get_eeprom", "e1000_set_eeprom",
		"e1000_nway_reset", "e1000_get_ringparam", "e1000_set_ringparam",
		"e1000_get_pauseparam", "e1000_set_pauseparam", "e1000_get_strings",
	}, 24), 1143, func(i int, f *slicer.Function) { f.ConvertedToJava = true })
	b.chainCalls(ethtoolDecaf)

	// Cross-file edges and CIL-visible field accesses.
	b.d.Funcs["e1000_probe"].Calls = append(b.d.Funcs["e1000_probe"].Calls,
		"e1000_reset_hw", "e1000_read_eeprom", "e1000_validate_eeprom_checksum",
		"e1000_read_mac_addr", "e1000_check_options", "pci_enable_device",
		"register_netdev")
	b.d.Funcs["e1000_open"].Calls = append(b.d.Funcs["e1000_open"].Calls,
		"e1000_setup_all_tx_resources", "e1000_setup_all_rx_resources",
		"e1000_request_irq", "e1000_power_up_phy", "e1000_up", "request_irq")
	b.d.Funcs["e1000_open"].ReadsFields = []string{"e1000_adapter.mac_addr"}
	b.d.Funcs["e1000_probe"].WritesFields = []string{"e1000_adapter.msg_enable",
		"e1000_adapter.config_space"}
	b.d.Funcs["e1000_watchdog"].ReadsFields = []string{"e1000_adapter.link_up",
		"e1000_adapter.stats_tx_packets"}

	// --- error-handling ground truth for the §5.1 analyses ---
	plantErrorSites(b.d, hwDecaf, mainDecaf)

	b.d.CriticalRoots = []string{"e1000_intr", "e1000_xmit_frame", "e1000_tx_timeout"}
	b.d.InterfaceFuncs = []string{
		"e1000_intr", "e1000_xmit_frame", "e1000_tx_timeout",
		"e1000_probe", "e1000_remove", "e1000_open", "e1000_close",
		"e1000_set_mac", "e1000_set_multi", "e1000_change_mtu",
		"e1000_suspend", "e1000_resume", "e1000_watchdog",
		"e1000_get_settings", "e1000_set_settings", "e1000_get_drvinfo",
		"e1000_intr_test", "e1000_loopback_test",
	}
	b.d.KernelImports = []string{"pci_enable_device", "register_netdev",
		"request_irq", "free_irq", "netif_rx", "netif_carrier_on",
		"netif_carrier_off", "pci_read_config_dword"}
	b.d.Structs = e1000Structs()
	b.d.FileLoC["e1000_hw.c"] = E1000HWFileLoC

	// Annotation budget: Table 2 reports 64.
	seedAnnotations(b.d, 64)
	return b.d
}

// e1000Structs defines the shared structures, including the Figure 3
// config_space member with its exp(PCI_LEN) annotation.
func e1000Structs() []*slicer.StructDef {
	return []*slicer.StructDef{
		{
			Name: "e1000_adapter",
			Fields: []slicer.FieldDef{
				{Name: "test_tx_ring", CType: "struct e1000_tx_ring"},
				{Name: "test_rx_ring", CType: "struct e1000_rx_ring"},
				{Name: "config_space", CType: "uint32_t", Pointer: true, ArrayLen: 256, LenAnnotation: "exp(PCI_LEN)"},
				{Name: "msg_enable", CType: "int", DecafAccess: "RW"},
				{Name: "mac_addr", CType: "unsigned char", ArrayLen: 6, DecafAccess: "R"},
				{Name: "link_up", CType: "bool", DecafAccess: "R"},
				{Name: "phy_id", CType: "uint32_t", DecafAccess: "R"},
				{Name: "eeprom_shadow", CType: "uint16_t", Pointer: true, ArrayLen: 64, LenAnnotation: "exp(EEPROM_LEN)"},
				{Name: "stats_tx_packets", CType: "unsigned long long"},
				{Name: "stats_rx_packets", CType: "unsigned long long"},
				{Name: "tx_ring_count", CType: "uint32_t", DecafAccess: "RW"},
				{Name: "rx_ring_count", CType: "uint32_t", DecafAccess: "RW"},
				{Name: "flow_control", CType: "uint32_t", DecafAccess: "RW"},
				{Name: "itr", CType: "uint32_t"},
			},
		},
		{
			Name: "e1000_tx_ring",
			Fields: []slicer.FieldDef{
				{Name: "count", CType: "uint32_t"},
				{Name: "next_to_use", CType: "uint32_t"},
				{Name: "next_to_clean", CType: "uint32_t"},
			},
		},
		{
			Name: "e1000_rx_ring",
			Fields: []slicer.FieldDef{
				{Name: "count", CType: "uint32_t"},
				{Name: "next_to_clean", CType: "uint32_t"},
			},
		},
		{
			Name: "e1000_hw",
			Fields: []slicer.FieldDef{
				{Name: "mac_type", CType: "int", DecafAccess: "R"},
				{Name: "phy_type", CType: "int", DecafAccess: "R"},
				{Name: "media_type", CType: "int"},
				{Name: "ffe_config_state", CType: "int", DecafAccess: "RW"},
				{Name: "fc", CType: "uint32_t"},
				{Name: "autoneg", CType: "bool", DecafAccess: "RW"},
			},
		},
	}
}

// plantErrorSites installs the §5.1 ground truth: exactly
// E1000FunctionsWithErrorSites functions carry error-return call sites,
// their check-and-return idiom occupies E1000ErrorCheckLines lines in
// total, and exactly E1000DefectiveSites sites are ignored or misrouted.
func plantErrorSites(d *slicer.Driver, hwFuncs, mainFuncs []string) {
	carriers := make([]string, 0, E1000FunctionsWithErrorSites)
	carriers = append(carriers, hwFuncs[:70]...)
	carriers = append(carriers, mainFuncs[:E1000FunctionsWithErrorSites-70]...)

	// First pass: create sites (3 per function for the first 50 carriers,
	// 2 thereafter) and plant the 28 defects — 20 ignored returns, 8
	// checked-but-misrouted ones.
	defectsLeft := E1000DefectiveSites
	uncheckedLeft := 20
	var sites []*slicer.ErrorSite
	siteIdx := 0
	for i, fn := range carriers {
		f := d.Funcs[fn]
		f.UsesGotoCleanup = true
		n := 2
		if i < 50 {
			n = 3
		}
		f.ErrorSites = make([]slicer.ErrorSite, n)
		for s := 0; s < n; s++ {
			site := &f.ErrorSites[s]
			site.Callee = "e1000_read_phy_reg"
			site.Checked = true
			site.HandledCorrectly = true
			if defectsLeft > 0 && siteIdx%8 == 3 {
				if uncheckedLeft > 0 {
					site.Checked = false
					uncheckedLeft--
				} else {
					site.HandledCorrectly = false
				}
				defectsLeft--
			}
			sites = append(sites, site)
			siteIdx++
		}
	}
	if defectsLeft != 0 {
		panic(fmt.Sprintf("drivermodel: planted only %d of %d defects",
			E1000DefectiveSites-defectsLeft, E1000DefectiveSites))
	}

	// Second pass: distribute the 675 check-and-return lines across the
	// *checked* sites only (an ignored return has no check code to remove).
	var checked []*slicer.ErrorSite
	for _, s := range sites {
		if s.Checked {
			checked = append(checked, s)
		}
	}
	base := E1000ErrorCheckLines / len(checked)
	rem := E1000ErrorCheckLines - base*len(checked)
	for i, s := range checked {
		s.CheckLines = base
		if i < rem {
			s.CheckLines++
		}
	}
}

// seedAnnotations tops the driver's annotation count up to the target by
// placing marshaling annotations on entry-point functions.
func seedAnnotations(d *slicer.Driver, target int) {
	have := d.AnnotationCount()
	if have >= target {
		return
	}
	need := target - have
	for _, fn := range d.InterfaceFuncs {
		if need == 0 {
			return
		}
		d.Funcs[fn].Annotations++
		need--
	}
	for _, fn := range d.FuncNames() {
		if need == 0 {
			return
		}
		d.Funcs[fn].Annotations++
		need--
	}
}
