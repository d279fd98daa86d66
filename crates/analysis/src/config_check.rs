//! Config / fault-plan cross-validation (`HX030`–`HX033`).
//!
//! A fault plan is a schedule against *this* topology under *this* config:
//! a fault naming a device that does not exist silently never fires, and a
//! wedge injected while the watchdog is disabled is the documented-invalid
//! combination that turns a test scenario into an unbounded hang. These
//! checks also run standalone (via [`check_fault_plan`]) so fault-plan
//! authors can validate schedules before attaching them to a topology.

use crate::diagnostics::{AnalysisReport, Code};
use hetex_common::FaultConfig;
use hetex_topology::{DeviceFault, FaultPlan, ServerTopology};

/// Run the config checks against the topology's attached fault plan (no-op
/// when none is attached).
pub fn check(config: &FaultConfig, topology: &ServerTopology, report: &mut AnalysisReport) {
    if let Some(plan) = topology.fault_plan() {
        check_fault_plan(plan, topology, config, report);
    }
}

/// Validate one fault plan against a topology and the fault-tolerance
/// toggles that would be in effect when it fires.
pub fn check_fault_plan(
    plan: &FaultPlan,
    topology: &ServerTopology,
    config: &FaultConfig,
    report: &mut AnalysisReport,
) {
    for (device, fault) in plan.device_faults() {
        if topology.device(*device).is_err() {
            report.report(
                Code::HX030,
                None,
                format!("fault plan schedules {fault:?} on unknown device {device:?}"),
            );
            continue;
        }
        match fault {
            DeviceFault::Wedge { at } => {
                if !config.watchdog {
                    report.report(
                        Code::HX031,
                        None,
                        format!(
                            "wedge of {device:?} at {at:?} with the watchdog disabled: the \
                             wedged worker would never be detected and the query would hang"
                        ),
                    );
                }
            }
            DeviceFault::TransientWindow { from, until, probability, .. } => {
                if !(0.0..=1.0).contains(probability) {
                    report.report(
                        Code::HX030,
                        None,
                        format!(
                            "transient window on {device:?} has probability {probability}, \
                             outside [0, 1]"
                        ),
                    );
                } else if from >= until || *probability == 0.0 {
                    report.report(
                        Code::HX033,
                        None,
                        format!(
                            "transient window on {device:?} ([{from:?}, {until:?}), \
                             p={probability}) can never fire"
                        ),
                    );
                } else if !config.transient_retry && !config.quarantine {
                    report.report(
                        Code::HX032,
                        None,
                        format!(
                            "transient window on {device:?} with both transient retry and \
                             quarantine disabled: any injected failure aborts the query"
                        ),
                    );
                }
            }
            DeviceFault::PermanentAbort { .. } => {}
        }
    }
    for burst in plan.arena_bursts() {
        if topology.memory_node(burst.node).is_err() {
            report.report(
                Code::HX030,
                None,
                format!("arena burst targets unknown memory node {:?}", burst.node),
            );
        } else if burst.from >= burst.until || burst.bytes == 0 {
            report.report(
                Code::HX033,
                None,
                format!(
                    "arena burst on {:?} ([{:?}, {:?}), {} bytes) can never fire",
                    burst.node, burst.from, burst.until, burst.bytes
                ),
            );
        }
    }
}
