//! I/O request and completion types shared by all device models.

use nvhsm_cache::AccessClass;
use nvhsm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Storage tier of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Flash behind the DDR interface (shares memory channels with DRAM).
    Nvdimm,
    /// Flash behind a PCIe link.
    Ssd,
    /// Rotational disk behind SATA.
    Hdd,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Nvdimm => write!(f, "NVDIMM"),
            DeviceKind::Ssd => write!(f, "SSD"),
            DeviceKind::Hdd => write!(f, "HDD"),
        }
    }
}

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// Read blocks.
    Read,
    /// Write blocks.
    Write,
}

/// One block I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Identifier of the issuing stream (workload / VMDK); used for
    /// sequentiality detection and per-workload latency accounting.
    pub stream: u32,
    /// First 4 KiB block addressed, in device-logical space.
    pub block: u64,
    /// Request size in 4 KiB blocks (the paper's `IOS` feature).
    pub size_blocks: u32,
    /// Read or write.
    pub op: IoOp,
    /// Arrival time at the device.
    pub arrival: SimTime,
    /// Normal workload traffic or migration traffic (bypass-eligible).
    pub class: AccessClass,
    /// On a read: serve from the buffer cache if resident, but never
    /// admit or promote (the hint for reads of a VMDK classified cold).
    /// Unlike the migrated class, the request still counts as workload
    /// traffic.
    pub no_admit: bool,
}

impl IoRequest {
    /// Convenience constructor for a normal-class request.
    pub fn normal(stream: u32, block: u64, size_blocks: u32, op: IoOp, arrival: SimTime) -> Self {
        IoRequest {
            stream,
            block,
            size_blocks,
            op,
            arrival,
            class: AccessClass::Normal,
            no_admit: false,
        }
    }

    /// Convenience constructor for a migration-class request.
    pub fn migrated(stream: u32, block: u64, size_blocks: u32, op: IoOp, arrival: SimTime) -> Self {
        IoRequest {
            stream,
            block,
            size_blocks,
            op,
            arrival,
            class: AccessClass::Migrated,
            no_admit: false,
        }
    }

    /// Bytes moved by this request.
    pub fn bytes(&self) -> u64 {
        self.size_blocks as u64 * 4096
    }
}

/// Why a device failed a request.
///
/// Errors carry the instant the failure was detected so the host can charge
/// the time spent discovering the fault (and schedule retries after it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoError {
    /// A retryable failure: the device is reachable but this request was
    /// dropped (bit flip, CRC mismatch, command timeout). Retrying after a
    /// backoff may succeed.
    Transient {
        /// When the failure was reported to the host.
        at: SimTime,
    },
    /// The device is unreachable; retries are pointless until it recovers.
    Offline {
        /// When the failure was reported to the host.
        at: SimTime,
    },
}

impl IoError {
    /// The instant the failure was reported.
    pub fn at(&self) -> SimTime {
        match *self {
            IoError::Transient { at } | IoError::Offline { at } => at,
        }
    }

    /// Whether retrying (after a backoff) can succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, IoError::Transient { .. })
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Transient { at } => write!(f, "transient I/O error at {at}"),
            IoError::Offline { at } => write!(f, "device offline at {at}"),
        }
    }
}

/// Completion of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoCompletion {
    /// When the request finished.
    pub done: SimTime,
    /// End-to-end latency (arrival → done).
    pub latency: SimDuration,
}

impl IoCompletion {
    /// Builds a completion from arrival and finish times.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `done` precedes `arrival`.
    pub fn finished(arrival: SimTime, done: SimTime) -> Self {
        IoCompletion {
            done,
            latency: done - arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors_set_class() {
        let n = IoRequest::normal(1, 2, 3, IoOp::Read, SimTime::ZERO);
        assert_eq!(n.class, AccessClass::Normal);
        let m = IoRequest::migrated(1, 2, 3, IoOp::Write, SimTime::ZERO);
        assert_eq!(m.class, AccessClass::Migrated);
        assert_eq!(n.bytes(), 3 * 4096);
    }

    #[test]
    fn completion_latency_computed() {
        let c = IoCompletion::finished(SimTime::from_us(10), SimTime::from_us(25));
        assert_eq!(c.latency, SimDuration::from_us(15));
    }

    #[test]
    fn io_error_classification() {
        let t = IoError::Transient {
            at: SimTime::from_us(3),
        };
        let o = IoError::Offline {
            at: SimTime::from_us(7),
        };
        assert!(t.is_retryable());
        assert!(!o.is_retryable());
        assert_eq!(t.at(), SimTime::from_us(3));
        assert_eq!(o.at(), SimTime::from_us(7));
        assert!(t.to_string().contains("transient"));
        assert!(o.to_string().contains("offline"));
    }

    #[test]
    fn device_kind_displays() {
        assert_eq!(DeviceKind::Nvdimm.to_string(), "NVDIMM");
        assert_eq!(DeviceKind::Ssd.to_string(), "SSD");
        assert_eq!(DeviceKind::Hdd.to_string(), "HDD");
    }
}
