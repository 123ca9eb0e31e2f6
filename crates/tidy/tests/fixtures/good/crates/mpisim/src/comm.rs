pub struct SimClock;

impl SimClock {
    pub fn charge(&mut self, _cost: u64) {}
}

pub struct Comm {
    clock: SimClock,
    size: usize,
}

impl Comm {
    pub fn send(&mut self, bytes: u64) -> Result<(), ()> {
        self.clock.charge(bytes);
        Ok(())
    }

    pub fn recv(&mut self, bytes: u64) -> Result<u64, ()> {
        if self.size == 1 {
            return Ok(0);
        }
        self.clock.charge(bytes);
        Ok(bytes)
    }

    pub async fn irecv(&mut self, bytes: u64) -> Result<u64, ()> {
        if self.size == 1 {
            return Ok(0);
        }
        let got = self.next_packet().await?;
        self.clock.charge(got);
        Ok(got)
    }

    pub fn barrier(&mut self) -> Result<u64, ()> {
        block_on(self.irecv(0))
    }

    async fn next_packet(&self) -> Result<u64, ()> {
        Ok(8)
    }
}
