//! A recycling slab of [`ActiveJob`]s.
//!
//! The hot-path engines keep every in-flight job in one flat `Vec` and
//! pass 32-bit slot indices through run queues, steals, and running
//! slots. Slots freed by completed jobs are reused (LIFO free list), so
//! steady-state simulation performs no per-job allocation and queue
//! operations move 4-byte indices instead of 64-byte job structs.

use crate::active::ActiveJob;

/// Slot index into a [`JobSlab`].
pub(crate) type JobIdx = u32;

/// Sentinel for "no job occupies this running slot".
pub(crate) const NO_JOB: JobIdx = JobIdx::MAX;

/// A free-list slab of in-flight jobs.
#[derive(Debug)]
pub(crate) struct JobSlab {
    jobs: Vec<ActiveJob>,
    free: Vec<JobIdx>,
}

impl JobSlab {
    /// An empty slab with room for `cap` concurrent jobs before growing.
    pub fn with_capacity(cap: usize) -> Self {
        JobSlab {
            jobs: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Stores `job`, returning its slot index.
    #[inline]
    pub fn insert(&mut self, job: ActiveJob) -> JobIdx {
        match self.free.pop() {
            Some(idx) => {
                self.jobs[idx as usize] = job;
                idx
            }
            None => {
                let idx = self.jobs.len() as JobIdx;
                self.jobs.push(job);
                idx
            }
        }
    }

    /// Removes the job at `idx`, releasing the slot for reuse.
    #[inline]
    pub fn remove(&mut self, idx: JobIdx) -> ActiveJob {
        debug_assert!(!self.free.contains(&idx), "double free of job slot");
        self.free.push(idx);
        self.jobs[idx as usize]
    }

    /// The job at `idx`.
    #[inline]
    pub fn get(&self, idx: JobIdx) -> &ActiveJob {
        &self.jobs[idx as usize]
    }

    /// The job at `idx`, mutably.
    #[inline]
    pub fn get_mut(&mut self, idx: JobIdx) -> &mut ActiveJob {
        &mut self.jobs[idx as usize]
    }

    /// Number of live (not freed) jobs.
    pub fn live(&self) -> usize {
        self.jobs.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_core::{ClassId, JobId, Nanos};

    fn job(id: u64) -> ActiveJob {
        ActiveJob {
            id: JobId(id),
            class: ClassId(0),
            arrival: Nanos::ZERO,
            service_true: Nanos::from_micros(1),
            remaining: Nanos::from_micros(1),
            attained: Nanos::ZERO,
            quanta: 0,
            quantum: Nanos::from_micros(1),
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = JobSlab::with_capacity(4);
        let a = slab.insert(job(1));
        let b = slab.insert(job(2));
        assert_eq!(slab.get(a).id.0, 1);
        assert_eq!(slab.get(b).id.0, 2);
        slab.get_mut(a).quanta = 7;
        assert_eq!(slab.remove(a).quanta, 7);
        assert_eq!(slab.live(), 1);
    }

    #[test]
    fn slots_are_recycled() {
        let mut slab = JobSlab::with_capacity(2);
        let a = slab.insert(job(1));
        slab.remove(a);
        let b = slab.insert(job(2));
        // LIFO free list hands the hot (just-vacated) slot back first.
        assert_eq!(a, b);
        assert_eq!(slab.get(b).id.0, 2);
        assert_eq!(slab.live(), 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg_attr(not(debug_assertions), ignore = "double-free check is a debug_assert")]
    fn double_remove_is_a_bug() {
        let mut slab = JobSlab::with_capacity(2);
        let a = slab.insert(job(1));
        slab.remove(a);
        slab.remove(a);
    }
}
