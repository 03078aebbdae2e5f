//! In-flight executor jobs, in a slab.
//!
//! A job id is its slot index plus the slot's generation, so the id a
//! kernel event carries ([`wattdb_sim::Signal::Resume`]) finds its job by
//! index — no hashing — and an event that outlives its job misses instead
//! of waking the slot's next tenant. Slots keep their boxed [`TxnJob`] when
//! a job leaves: the next job reuses the box and the capacity of the lists
//! inside it, so a steady state allocates nothing per transaction.

use crate::executor::TxnJob;

struct Slot {
    /// Generation of the job living here; bumped when it leaves.
    generation: u32,
    /// `None` while checked out ([`JobSlab::alloc`],
    /// [`JobSlab::check_out`]), and in a slot that never had a tenant.
    job: Option<Box<TxnJob>>,
}

/// The executor's live jobs.
#[derive(Default)]
pub struct JobSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

fn id_of(index: u32, generation: u32) -> u64 {
    (generation as u64) << 32 | index as u64
}

impl JobSlab {
    /// Jobs in flight.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no job is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot `id` names, if its job has not left.
    fn slot(&self, id: u64) -> Option<usize> {
        let index = id as u32 as usize;
        let live = self.slots.get(index)?.generation == (id >> 32) as u32;
        live.then_some(index)
    }

    /// Claim a slot for a new job: its id, and the box of the slot's last
    /// tenant (if it had one) for the caller to refill and
    /// [`JobSlab::check_in`].
    pub(crate) fn alloc(&mut self) -> (u64, Option<Box<TxnJob>>) {
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                (id_of(index, slot.generation), slot.job.take())
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("job slab overflow");
                self.slots.push(Slot {
                    generation: 0,
                    job: None,
                });
                (id_of(index, 0), None)
            }
        }
    }

    /// The job `id`, unless it left or is checked out.
    pub fn get(&self, id: u64) -> Option<&TxnJob> {
        self.slots[self.slot(id)?].job.as_deref()
    }

    /// Mutable access to the job `id`, unless it left or is checked out.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut TxnJob> {
        let index = self.slot(id)?;
        self.slots[index].job.as_deref_mut()
    }

    /// Take job `id` out for the length of one executor step (a pointer
    /// move), so the step can work on it and on the cluster at once.
    pub(crate) fn check_out(&mut self, id: u64) -> Option<Box<TxnJob>> {
        let index = self.slot(id)?;
        self.slots[index].job.take()
    }

    /// Put a job taken with [`JobSlab::check_out`] (or filled in after
    /// [`JobSlab::alloc`]) into its slot.
    pub(crate) fn check_in(&mut self, job: Box<TxnJob>) {
        let index = self.slot(job.id).expect("checked-out job is still live");
        self.slots[index].job = Some(job);
    }

    /// Job `id` is done: free its slot. Later lookups of `id` miss.
    pub(crate) fn release(&mut self, id: u64) {
        if let Some(index) = self.slot(id) {
            self.slots[index].generation = self.slots[index].generation.wrapping_add(1);
            self.free.push(index as u32);
        }
    }
}
